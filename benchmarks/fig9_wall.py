"""Figure 9 in measured time: Conventional vs RIC, with and without publish.

Figure 9 of the paper compares the Reuse run's time with and without RIC;
``test_fig9_time.py`` reproduces it in *modeled* time.  This script asks
the same question in wall time, on the path a ``ric-run --cache-dir D
--store-dir S`` user takes with a warm code cache:

* **Conventional**: no records are fetched or published;
* **RIC**: the per-file records trained on website A are fetched from a
  directory store (opened inside the timed region) and reused;
* **RIC + publish**: as RIC, then the run's records are written back
  (``Engine.publish_records``), the perfbench ``warm_reuse`` user path.

Inputs are those of perfbench's ``warm_reuse`` workload: all seven
libraries, in a seeded order per iteration.  Each iteration times the
three configurations on the same scripts and engine seed, in an order
that rotates with the iteration; every configuration starts from a fresh
engine, a fresh copy of the trained store and a collected heap.  The report gives medians
with quartiles, the time spent in the garbage collector, and a per-library
table: each library alone, reusing its own record trained on it alone
(the paper's protocol), in the same three configurations.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/fig9_wall.py [--iterations 12] [--seed 7]

The rendered table is written to ``benchmarks/out/fig9_wall.txt``.
"""

from __future__ import annotations

import argparse
import gc
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro import Engine
from repro.ric import RecordStore
from repro.workloads import WORKLOADS, website_a

OUTPUT = Path(__file__).parent / "out" / "fig9_wall.txt"

CONFIGS = ("conventional", "ric", "ric_publish")


class GCClock:
    """Wall time spent inside garbage collections while enabled."""

    def __init__(self) -> None:
        self.total = 0.0
        self._start = 0.0
        self.enabled = False

    def __call__(self, phase: str, info: dict) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.total += time.perf_counter() - self._start


def library_scripts(names) -> list:
    return [(f"{name}.jsl", WORKLOADS[name].source) for name in names]


def timed_run(config: str, scripts, seed: int, cache_dir: Path, store_dir, clock):
    """One run of one configuration, split into layers (ms) plus misses.

    ``store``: opening the record store (reads, decodes and validates
    every record in it); ``build``: ``Engine.run`` outside execute (code
    cache load, record fetch and admission, quickening, session set-up
    and preloads); ``execute``: the run's ``wall_time_ms``; ``publish``:
    extract, encode and put.
    """
    gc.collect()  # untimed: no run pays for an earlier run's garbage
    clock.total = 0.0
    clock.enabled = True
    marks = [time.perf_counter()]
    if config == "conventional":
        marks.append(marks[0])
        engine = Engine(cache_dir=str(cache_dir), seed=seed)
        profile = engine.run(scripts, name="fig9")
    else:
        store = RecordStore(store_dir)
        marks.append(time.perf_counter())
        engine = Engine(cache_dir=str(cache_dir), record_store=store, seed=seed)
        profile = engine.run(scripts, name="fig9", use_store=True)
    marks.append(time.perf_counter())
    if config == "ric_publish":
        engine.publish_records(counters=profile.counters)
    marks.append(time.perf_counter())
    clock.enabled = False
    run_ms = (marks[2] - marks[1]) * 1000.0
    return {
        "total": (marks[3] - marks[0]) * 1000.0,
        "store": (marks[1] - marks[0]) * 1000.0,
        "build": run_ms - profile.wall_time_ms,
        "execute": profile.wall_time_ms,
        "publish": (marks[3] - marks[2]) * 1000.0,
        "gc": clock.total * 1000.0,
        "ic_misses": profile.counters.ic_misses,
    }


def measure(iterations: int = 12, seed: int = 7, per_library: int = 9) -> dict:
    """Time the three configurations; returns the raw samples."""
    rng = random.Random(seed)
    clock = GCClock()
    gc.callbacks.append(clock)
    root = Path(tempfile.mkdtemp(prefix="fig9_wall_"))
    try:
        cache_dir = root / "cache"

        def train(scripts, trained: Path) -> Path:
            trainer = Engine(
                cache_dir=str(cache_dir),
                record_store=RecordStore(trained),
                seed=rng.getrandbits(32),
            )
            trainer.run(scripts, name="train", use_store=True)
            trainer.publish_records()
            return trained

        def run_block(scripts, trained, engine_seed, rotation, samples):
            order = CONFIGS[rotation % 3 :] + CONFIGS[: rotation % 3]
            for config in order:
                store_dir = root / "store"
                shutil.rmtree(store_dir, ignore_errors=True)
                shutil.copytree(trained, store_dir)
                samples[config].append(
                    timed_run(config, scripts, engine_seed, cache_dir, store_dir, clock)
                )

        # The website store also fills the code cache; a warm-up block
        # runs all seven libraries once more before anything is timed.
        names = sorted(WORKLOADS)
        trained = train(website_a(), root / "trained")
        run_block(library_scripts(names), trained, 1, 0, {c: [] for c in CONFIGS})

        website = {c: [] for c in CONFIGS}
        for iteration in range(iterations):
            order = rng.sample(names, len(names))
            run_block(
                library_scripts(order), trained, rng.getrandbits(32), iteration, website
            )

        # Per library, the paper's protocol: its own record, trained on
        # the library alone.
        libraries = {}
        for name in names:
            scripts = library_scripts([name])
            own = train(scripts, root / f"trained-{name}")
            samples = {c: [] for c in CONFIGS}
            for iteration in range(per_library):
                run_block(scripts, own, rng.getrandbits(32), iteration, samples)
            libraries[name] = samples
    finally:
        gc.callbacks.remove(clock)
        shutil.rmtree(root, ignore_errors=True)
    return {"website": website, "libraries": libraries}


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


LAYERS = ("store", "build", "execute", "publish", "gc")


def render(result: dict, iterations: int, seed: int) -> str:
    website = result["website"]

    def median(samples, field):
        return statistics.median(sample[field] for sample in samples)

    lines = [
        "Figure 9 (measured): warm-cache run time, Conventional vs RIC",
        "=" * 62,
        f"host: {platform.machine()}, {platform.python_implementation()} "
        f"{platform.python_version()}, {platform.system()}; "
        f"seed {seed}, {iterations} iterations, median [quartiles]",
        "",
        "All seven libraries, seeded order (perfbench warm_reuse inputs).",
        "Layers are medians; gc overlaps the others.",
        f"{'configuration':<14}{'run ms':>24}{'vs Conv':>8}"
        + "".join(f"{layer:>9}" for layer in LAYERS)
        + f"{'ic_misses':>10}",
    ]
    conventional = median(website["conventional"], "total")
    for config in CONFIGS:
        samples = website[config]
        q1, total, q3 = _quartiles([sample["total"] for sample in samples])
        lines.append(
            f"{config:<14}{total:>8.1f} [{q1:>6.1f}, {q3:>6.1f}]"
            f"{total / conventional:>8.2f}"
            + "".join(f"{median(samples, layer):>9.1f}" for layer in LAYERS)
            + f"{median(samples, 'ic_misses'):>10,.0f}"
        )
    lines += [
        "",
        "Each library alone, reusing its own record (median ms; ratio to Conventional):",
        f"{'library':<16}{'Conv':>8}{'RIC':>8}{'ratio':>7}{'RIC+pub':>9}{'ratio':>7}",
    ]
    ratios = []
    for name, samples in result["libraries"].items():
        conv, ric, pub = (median(samples[config], "total") for config in CONFIGS)
        ratios.append(ric / conv)
        lines.append(
            f"{name:<16}{conv:>8.1f}{ric:>8.1f}{ric / conv:>7.2f}"
            f"{pub:>9.1f}{pub / conv:>7.2f}"
        )
    lines.append(
        f"{'geomean':<16}{'':>8}{'':>8}{statistics.geometric_mean(ratios):>7.2f}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=12)
    parser.add_argument("--per-library", type=int, default=9)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)
    result = measure(args.iterations, args.seed, args.per_library)
    text = render(result, args.iterations, args.seed)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
