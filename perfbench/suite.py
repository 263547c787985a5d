"""Workload definitions and the untraced user path of the benchmark.

Every workload drives the path a ``ric-run --cache-dir D --store-dir S``
user takes, in-process and in one thread (a closed loop with one client):

    store = RecordStore(S)
    engine = Engine(cache_dir=D, record_store=store)
    profile = engine.run(scripts, use_store=True)
    print the output
    engine.publish_records(counters=profile.counters)

The seed picks library subsets, load orders, synthetic-generator
parameters and engine seeds.  Programs receive only the generated
sources; every run's console output is compared with references
produced by node (``expected/``), so a wrong answer counts as a failed
run.  The record-cache daemon (``repro.server``) is deliberately not
measured: every workload uses a local directory store.
"""

from __future__ import annotations

import io
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from repro import Engine
from repro.ric import RecordStore
from repro.workloads import WORKLOADS, polyshapes, typedarith, website_a
from repro.workloads.synthetic import generated_scripts

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

#: The seven paper libraries, in a fixed order the seeded draws index.
LIBRARIES = sorted(WORKLOADS)

#: Inclusive ranges the synthetic library's parameters are drawn from.
SYNTHETIC_RANGES = {
    "shapes": (8, 12),
    "fields_per_shape": (3, 5),
    "sites_per_shape": (2, 4),
    "instances": (2, 4),
}

HOT_PROGRAMS = {
    typedarith.NAME: typedarith.SOURCE,
    polyshapes.NAME: polyshapes.SOURCE,
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line, repeated in BENCHMARK.json.
    why: str
    #: Why the workload exists: which layers it loads and which it leaves idle.
    rationale: str
    #: The end-to-end phase measures whole blocks of this many runs.
    runs_per_block: int = 1


COLD_START = Workload(
    "cold_start",
    "empty code cache and record store each run: frontend and record writes dominate",
    "Each run starts from empty cache and store directories and loads a "
    "seeded website (six of the seven libraries plus one seeded synthetic "
    "library) from source text to output, then publishes its records. "
    "Lex/parse/compile/optimize account for over half the run, and the "
    "record write path (extract, encode, put) is most of the rest. Record "
    "read, quicken and preload do no work.",
    runs_per_block=len(LIBRARIES),
)
WARM_REUSE = Workload(
    "warm_reuse",
    "records trained on website A reused by all seven libraries in a new order",
    "Set-up trains once on website_a(). Each run builds a new engine and "
    "store over the filled directories and loads all seven libraries in a "
    "seeded order (the paper's section 6 cross-website reuse). It reads "
    "the records, runs, and republishes. The frontend does nothing here; "
    "code-cache disk load, record decode/validate, per-run quickening, "
    "preload and averted IC misses do most of their work. Because the run "
    "also writes records, a change that speeds reads by slowing "
    "extraction shows up.",
)
HOT_LOOP = Workload(
    "hot_loop",
    "one long-lived engine re-running typedarith+polyshapes: execute dominates",
    "One long-lived engine, records published once in set-up. It "
    "repeatedly runs the compute-heavy typedarith and polyshapes programs "
    "from in-memory artifacts. Execute, dispatch and quickened opcodes are "
    "nearly all of the run, while frontend and record I/O are about zero. "
    "An interpreter change shows here, and a frontend change must not.",
)

WORKLOAD_DEFS = {w.name: w for w in (COLD_START, WARM_REUSE, HOT_LOOP)}


# -- seeded inputs -------------------------------------------------------


def library_scripts(names) -> list:
    return [(f"{name}.jsl", WORKLOADS[name].source) for name in names]


def synthetic_script(rng: random.Random) -> tuple:
    """One generated library, its parameters drawn from SYNTHETIC_RANGES."""
    params = {key: rng.randint(lo, hi) for key, (lo, hi) in SYNTHETIC_RANGES.items()}
    return generated_scripts(**params)[0]


def cold_start_inputs(rng: random.Random):
    """Endless (scripts, engine seed) draws for cold_start.

    Every block of seven runs leaves each library out exactly once, in a
    seeded order, so every seed loads the same multiset of libraries and
    the run-time median does not hinge on which subsets a seed drew.
    """
    while True:
        for dropped in rng.sample(LIBRARIES, len(LIBRARIES)):
            kept = [name for name in LIBRARIES if name != dropped]
            rng.shuffle(kept)
            scripts = library_scripts(kept)
            scripts.insert(rng.randint(0, len(scripts)), synthetic_script(rng))
            yield scripts, rng.getrandbits(32)


def warm_reuse_inputs(rng: random.Random):
    """Endless (scripts, engine seed) draws: all seven libraries, seeded order."""
    while True:
        yield library_scripts(rng.sample(LIBRARIES, len(LIBRARIES))), rng.getrandbits(32)


def hot_loop_scripts(rng: random.Random) -> list:
    names = rng.sample(sorted(HOT_PROGRAMS), len(HOT_PROGRAMS))
    return [(f"{name}.jsl", HOT_PROGRAMS[name]) for name in names]


# -- reference outputs ---------------------------------------------------


def load_expected(directory: Path = EXPECTED_DIR) -> dict:
    """Program name -> expected console lines, as node printed them."""
    return {
        path.stem: path.read_text().splitlines()
        for path in sorted(directory.glob("*.txt"))
    }


def program_name(filename: str) -> str:
    stem = filename[: -len(".jsl")] if filename.endswith(".jsl") else filename
    return "synthetic" if stem.startswith("synthetic_") else stem


def expected_output(scripts, expected: dict) -> list:
    lines: list = []
    for filename, _ in scripts:
        lines.extend(expected[program_name(filename)])
    return lines


def printed(profile) -> list:
    """Print the run's output the way ric-run does, into a buffer."""
    sink = io.StringIO()
    for line in profile.console_output:
        print(line, file=sink)
    return sink.getvalue().splitlines()


# -- directories ---------------------------------------------------------


class WorkDirs:
    """Fresh directories under one root, removed by :meth:`close`."""

    def __init__(self, root: Path):
        self.root = root
        self._serial = 0
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)

    def fresh(self, prefix: str) -> Path:
        self._serial += 1
        return self.root / f"{prefix}{self._serial}"

    @staticmethod
    def discard(path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# -- the user path -------------------------------------------------------


def user_run(cache_dir: Path, store_dir: Path, scripts, seed: int):
    """One ``ric-run --cache-dir --store-dir`` invocation, in-process.

    Returns ``(profile, output lines, store, engine)``.
    """
    store = RecordStore(store_dir)
    engine = Engine(cache_dir=str(cache_dir), record_store=store, seed=seed)
    profile = engine.run(scripts, name="perfbench", use_store=True)
    output = printed(profile)
    engine.publish_records(counters=profile.counters)
    return profile, output, store, engine


def setup_workload(name: str, seed: int, dirs: WorkDirs) -> SimpleNamespace:
    """Set a workload up once: train, fill directories, warm the engine.

    Set-up output is not checked; every timed run's output is.
    """
    rng = random.Random(seed)
    if name == "cold_start":
        warm_up = cold_start_inputs(random.Random(rng.getrandbits(32)))
        scripts, engine_seed = next(warm_up)
        run_dir = dirs.fresh("cold")
        user_run(run_dir / "cache", run_dir / "store", scripts, engine_seed)
        dirs.discard(run_dir)
        return SimpleNamespace(inputs=cold_start_inputs(rng))
    if name == "warm_reuse":
        trained = dirs.fresh("trained")
        user_run(trained / "cache", trained / "store", website_a(), rng.getrandbits(32))
        setup = SimpleNamespace(
            inputs=warm_reuse_inputs(rng),
            cache_dir=trained / "cache",
            trained_store=trained / "store",
        )
        scripts, engine_seed = next(setup.inputs)
        cache_dir, store_dir, used = run_dirs(name, setup, dirs)
        user_run(cache_dir, store_dir, scripts, engine_seed)
        dirs.discard(used)
        return setup
    if name == "hot_loop":
        scripts = hot_loop_scripts(rng)
        run_dir = dirs.fresh("hot")
        _, _, store, engine = user_run(
            run_dir / "cache", run_dir / "store", scripts, rng.getrandbits(32)
        )
        engine.run(scripts, name="perfbench", use_store=True)
        return SimpleNamespace(
            scripts=scripts,
            engine=engine,
            store=store,
            cache_dir=run_dir / "cache",
            store_dir=run_dir / "store",
        )
    raise KeyError(name)


def run_dirs(name: str, setup, dirs: WorkDirs) -> tuple:
    """``(cache dir, store dir, directory to discard)`` for one new-engine
    run: both empty on cold_start, a copy of the trained store otherwise."""
    if name == "cold_start":
        run_dir = dirs.fresh("cold")
        return run_dir / "cache", run_dir / "store", run_dir
    store_dir = dirs.fresh("store")
    shutil.copytree(setup.trained_store, store_dir)
    return setup.cache_dir, store_dir, store_dir


@dataclass
class RunResult:
    ms: float
    ok: bool
    record_bytes: int
    script_keys: list
    error: str = ""


def timed_run(name: str, setup, dirs: WorkDirs, expected: dict) -> RunResult:
    """One untraced run of a workload; only the user-path calls are timed."""
    if name == "hot_loop":
        scripts, store = setup.scripts, setup.store
        start = perf_counter()
        profile = setup.engine.run(scripts, name="perfbench", use_store=True)
        output = printed(profile)
        elapsed = perf_counter() - start
    else:
        scripts, engine_seed = next(setup.inputs)
        cache_dir, store_dir, used = run_dirs(name, setup, dirs)
        try:
            start = perf_counter()
            profile, output, store, _ = user_run(cache_dir, store_dir, scripts, engine_seed)
            elapsed = perf_counter() - start
        finally:
            dirs.discard(used)
    ok = output == expected_output(scripts, expected)
    return RunResult(
        ms=elapsed * 1000.0,
        ok=ok,
        record_bytes=store.status()["bytes"],
        script_keys=list(profile.scripts),
        error="" if ok else "output differs from reference",
    )
