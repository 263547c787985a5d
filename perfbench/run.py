"""End-to-end benchmark of the RIC engine: cold_start, warm_reuse, hot_loop.

Run from the repository root:

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 30 --trace 0

One process and one thread drive the engine as a closed loop with one
client.  ``--trace 0`` times the untraced user path and reports the
end-to-end metrics:

* ``run_ms_p50`` / ``run_ms_tail``: median run time, and the highest
  percentile with at least ten runs beyond it (percentile and sample
  count are in the provenance line);
* ``runs_per_s``: completed runs per second of run time;
* ``setup_s``: median of five set-ups (training, directory fill, warm-up);
* ``peak_rss_mb``: peak resident set size of this process;
* ``record_bytes``: median serialized size of the run's records.

``--trace 1`` runs traced pipelines, each paired with an untraced twin,
and reports the per-layer metrics (see ``traced.py``).  Times are at
reference host speed (see ``hostspeed.py``); raw wall times are in the
provenance line.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records provenance.  Span traces go to ``perfbench/out/``.
Exits 2 without a result when the engine's sources (``src/repro``) are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORK_DIR = HERE / ".work"

WORKLOAD_NAMES = ("cold_start", "warm_reuse", "hot_loop")

#: Units of the reported metrics (names match BENCHMARK.json).
END_TO_END_UNITS = {
    "run_ms_p50": "ms",
    "run_ms_tail": "ms",
    "runs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "record_bytes": "bytes",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_rate")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def tail(times: list) -> tuple:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; with ten samples or fewer
    the maximum is reported as the 100th percentile.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _wall(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def measure_end_to_end(name: str, seed: int, seconds: float, setups: int, expected: dict):
    import hostspeed
    import suite

    # Whole blocks only, so every seed measures the same mix of websites.
    block = suite.WORKLOAD_DEFS[name].runs_per_block
    dirs = suite.WorkDirs(WORK_DIR / f"{name}-{os.getpid()}")
    try:
        setup_wall, setup_s = [], []
        for _ in range(setups):
            (setup, wall), scale = hostspeed.bracketed(
                _wall, suite.setup_workload, name, seed, dirs
            )
            setup_wall.append(wall)
            setup_s.append(wall * scale)
        runs, run_ms, failures = [], [], []
        attempted = 0
        phase_start = perf_counter()
        while True:
            attempted += 1
            try:
                result, scale = hostspeed.bracketed(
                    suite.timed_run, name, setup, dirs, expected
                )
                runs.append(result)
                run_ms.append(result.ms * scale)
                if not result.ok:
                    failures.append(result.error)
            except Exception as error:  # a failed run; keep measuring
                failures.append(f"{type(error).__name__}: {error}")
            if perf_counter() - phase_start >= seconds and attempted % block == 0:
                break
    finally:
        dirs.close()
    if not runs:
        raise RuntimeError(f"every run failed: {failures[:3]}")
    tail_ms, tail_pct, samples = tail(run_ms)
    wall_ms = [run.ms for run in runs]
    metrics = {
        "run_ms_p50": statistics.median(run_ms),
        "run_ms_tail": tail_ms,
        "runs_per_s": 1000.0 * sum(run.ok for run in runs) / sum(run_ms),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "record_bytes": statistics.median(run.record_bytes for run in runs),
    }
    details = {
        "tail_percentile": tail_pct,
        "samples": samples,
        "wall": {
            "run_ms_p50": statistics.median(wall_ms),
            "run_ms_tail": tail(wall_ms)[0],
            "setup_s": statistics.median(setup_wall),
        },
        "runs": [run.script_keys for run in runs],
    }
    return metrics, END_TO_END_UNITS, attempted, failures, details


def measure_traced(name: str, seed: int, seconds: float, expected: dict):
    import suite
    import traced

    dirs = suite.WorkDirs(WORK_DIR / f"{name}-{os.getpid()}")
    try:
        setup = suite.setup_workload(name, seed, dirs)
        workload = traced.TracedWorkload(name, setup, dirs, expected, seed)
        attempted, failures = 0, []
        phase_start = perf_counter()
        while True:
            attempted += 1
            try:
                workload.iteration()
            except Exception as error:  # a failed iteration; keep measuring
                failures.append(f"{type(error).__name__}: {error}")
            if perf_counter() - phase_start >= seconds:
                break
    finally:
        dirs.close()
    if not workload.rows:
        raise RuntimeError(f"every traced run failed: {failures[:3]}")
    metrics = workload.metrics()
    spans = OUT_DIR / f"spans-{name}-seed{seed}.json"
    workload.rec.dump(spans)
    units = {key: per_layer_unit(key) for key in metrics}
    details = {
        "traced_runs": len(workload.rows),
        "spans_file": str(spans.relative_to(ROOT)),
        "runs": workload.script_keys,
    }
    return metrics, units, attempted, failures, details


def fs_type(path: Path) -> str:
    """File-system type of the mount holding ``path`` (e.g. tmpfs, ext4)."""
    best, kind = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in lines:
        fields = line.split()
        mount = fields[4]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[fields.index("-") + 1]
    return kind


def git_commit() -> "str | None":
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(name: str, seed: int, seconds: float, trace: bool, setups: int = 5, expected=None):
    """Run one workload; returns ``(result, provenance)``."""
    import suite

    if expected is None:
        expected = suite.load_expected()
    if trace:
        metrics, units, attempted, failures, details = measure_traced(name, seed, seconds, expected)
    else:
        metrics, units, attempted, failures, details = measure_end_to_end(
            name, seed, seconds, setups, expected
        )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    provenance = {
        "workload": name,
        "why": suite.WORKLOAD_DEFS[name].rationale,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "work_dir_fs": fs_type(HERE),
        "git_commit": git_commit(),
        "failures": failures[:10],
        **details,
    }
    return result, provenance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so work directories are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, provenance = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
