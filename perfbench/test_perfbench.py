"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import make_expected  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
import traced  # noqa: E402
from repro import Engine  # noqa: E402
from repro.workloads.synthetic import generate_library  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    """One minimal measurement of every workload, untraced and traced."""
    return {
        (name, trace): run.measure(name, seed=3, seconds=0.01, trace=trace, setups=1)[0]
        for name in run.WORKLOAD_NAMES
        for trace in (False, True)
    }


def test_emitted_metrics_match_benchmark_json(results):
    declared = {
        False: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        True: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for (name, trace), result in results.items():
        emitted = {key: metric["unit"] for key, metric in result["metrics"].items()}
        assert emitted == declared[trace], (name, trace)


def test_every_run_is_correct(results):
    # Traced runs also check counters against their untraced twin and,
    # on warm_reuse, user-visible globals against a cold run.
    for key, result in results.items():
        assert result["correct"] and result["failed"] == 0, key
        assert result["attempted"] >= 1


def test_layer_spans_cover_the_run(results):
    for name in run.WORKLOAD_NAMES:
        metrics = results[(name, True)]["metrics"]
        run_ms = metrics["trace.run_ms"]["value"]
        assert 0 <= metrics["trace.unattributed_ms"]["value"] < 0.1 * run_ms


def test_workloads_match_benchmark_json():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {name: w.why for name, w in suite.WORKLOAD_DEFS.items()}
    assert list(declared) == list(run.WORKLOAD_NAMES)
    for workload in suite.WORKLOAD_DEFS.values():
        assert workload.rationale


def _draws(make, seed: int, count: int = 10):
    inputs = make(random.Random(seed))
    return [next(inputs) for _ in range(count)]


def test_same_seed_gives_same_scripts():
    for make in (suite.cold_start_inputs, suite.warm_reuse_inputs):
        assert _draws(make, 7) == _draws(make, 7)
        assert _draws(make, 7) != _draws(make, 8)
    assert suite.hot_loop_scripts(random.Random(7)) == suite.hot_loop_scripts(random.Random(7))


def test_cold_start_blocks_leave_each_library_out_once():
    for seed in (1, 2):
        block = _draws(suite.cold_start_inputs, seed, suite.COLD_START.runs_per_block)
        left_out = [
            set(suite.LIBRARIES) - {suite.program_name(f) for f, _ in scripts}
            for scripts, _ in block
        ]
        assert sorted(name for names in left_out for name in names) == suite.LIBRARIES


def test_same_seed_gives_same_counters(tmp_path):
    scripts, engine_seed = _draws(suite.cold_start_inputs, 5, 1)[0]
    counters = []
    for attempt in ("a", "b"):
        profile, output, _, _ = suite.user_run(
            tmp_path / attempt / "cache", tmp_path / attempt / "store", scripts, engine_seed
        )
        assert output == suite.expected_output(scripts, suite.load_expected())
        counters.append(profile.counters.as_dict())
    assert counters[0] == counters[1]


def test_wrong_reference_counts_as_failure():
    expected = suite.load_expected()
    expected["typedarith"] = ["not what the program prints"]
    for trace in (False, True):
        result, provenance = run.measure(
            "hot_loop", seed=1, seconds=0.01, trace=trace, setups=1, expected=expected
        )
        assert result["failed"] > 0 and not result["correct"]
        assert provenance["failures"]


def test_synthetic_reference_holds_over_its_range():
    expected = suite.load_expected()["synthetic"]
    corners = [generate_library(**params) for params in make_expected.synthetic_corners()]
    assert len(corners) == 2 ** len(suite.SYNTHETIC_RANGES)
    rng = random.Random(0)
    drawn = [suite.synthetic_script(rng)[1] for _ in range(8)]
    for source in corners + drawn:
        assert Engine(seed=1).run(source).console_output == expected


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, percentile, samples = run.tail([float(i) for i in range(1, 31)])
    assert (value, samples) == (20.0, 30)
    assert percentile == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_span_attribution_excludes_probes():
    rec = traced.SpanRecorder()
    rec.begin_run()
    rec.call("core.execute", sum, range(1000))
    rec.end_run()
    rec.probe("ric.validate", rec.last("core.execute"), sum, range(1000))
    (totals,) = rec.per_run_ms().values()
    assert totals["unattributed"] == pytest.approx(totals["run"] - totals["core.execute"])
    assert "ric.validate" in totals


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", ".work", "__pycache__")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=ignore)
    args = ["--workload", "hot_loop", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
