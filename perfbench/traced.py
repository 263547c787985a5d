"""The traced run: the user path composed from each layer's public calls.

Instead of ``Engine.run``, a traced run calls the layers one by one —
``RecordStore(dir)``, ``CodeCache.lookup``, ``tokenize``,
``Parser.parse_program``, ``Compiler.compile_program``,
``optimize_code``, ``CodeCache.store``, ``RecordStore.records_for``,
``RunSession(...)``, ``RunSession.execute``,
``extract_per_script_records`` and ``RecordStore.put`` — and records a
span around each call.  Spans (name, start, end, parent, run id) are kept
in memory and written once at the end.

Some layers run inside another layer's call: record decoding inside
``RecordStore(dir)``, admission and quickening inside the ``RunSession``
constructor, encoding inside ``RecordStore.put``.  They are attributed
by *probes*: after the run span closes, the same pure function is called
again on the same inputs (``record_from_envelope``, ``validate_record``,
``merge_site_feedback`` + ``quicken_code``, ``record_to_envelope`` +
``json.dumps``) and timed as a span whose parent is the span it probes.
Probes never count toward the run span.

Each traced run is paired with an untraced ``Engine`` run of the same
scripts and seed; their ``Counters.as_dict()`` must be identical, which
proves both compose the same program.  On ``warm_reuse`` a cold run of
the same scripts and seed must also leave the same user-visible globals
as the reusing run.
"""

from __future__ import annotations

import json
import random
import statistics
from time import perf_counter, perf_counter_ns

from repro import Engine
from repro.baselines.snapshot import serialize_user_globals
from repro.bytecode.cache import CodeCache, source_hash
from repro.bytecode.compiler import Compiler
from repro.bytecode.optimizer import optimize_code
from repro.core.artifacts import ScriptArtifact
from repro.core.config import RICConfig
from repro.core.session import RunSession
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.ric import RecordStore
from repro.ric.serialize import record_from_envelope, record_to_envelope
from repro.ric.validate import validate_record
from repro.specialize.quicken import merge_site_feedback, quicken_code
from repro.stats.counters import Counters

import hostspeed
import suite

#: Spans whose per-run total is reported as ``<name>_ms``.
TIMED_LAYERS = (
    "lang.lex",
    "lang.parse",
    "bytecode.compile",
    "bytecode.optimize",
    "bytecode.cache_store",
    "bytecode.cache_load",
    "ric.store_load",
    "ric.decode",
    "ric.validate",
    "ric.extract",
    "ric.encode",
    "ric.put",
    "specialize.quicken",
    "core.preflight",
    "core.execute",
)


SPAN_FIELDS = ["name", "start_ns", "end_ns", "parent", "run_id", "probe"]


class SpanRecorder:
    """In-memory spans: ``[name, start_ns, end_ns, parent, run_id, probe]``.

    ``parent`` is the index of the enclosing span (``None`` for a run
    span).  Nothing is written until :meth:`dump`.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.run_id = -1

    def begin_run(self) -> None:
        self.run_id += 1
        self._stack = [len(self.spans)]
        self.spans.append(["run", perf_counter_ns(), None, None, self.run_id, False])

    def end_run(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter_ns()

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": self.spans}))

    def call(self, name, fn, /, *args, **kwargs):
        """Time one layer call as a child of the current span."""
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        end = perf_counter_ns()
        self.spans.append([name, start, end, self._stack[-1], self.run_id, False])
        return result

    def probe(self, name, parent: int, fn, /, *args, **kwargs):
        """Time a standalone re-call attributing part of span ``parent``."""
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        end = perf_counter_ns()
        self.spans.append([name, start, end, parent, self.run_id, True])
        return result

    def last(self, name: str) -> int:
        for index in range(len(self.spans) - 1, -1, -1):
            if self.spans[index][0] == name:
                return index
        raise KeyError(name)

    def per_run_ms(self) -> dict:
        """Run id -> ``{span name: total ms}`` plus ``run`` and
        ``unattributed``, for every run whose run span finished."""
        runs = {
            run_id: {}
            for name, _, end, _, run_id, _ in self.spans
            if name == "run" and end is not None
        }
        for name, start, end, parent, run_id, probe in self.spans:
            totals = runs.get(run_id)
            if totals is None:
                continue
            ms = (end - start) / 1e6
            totals[name] = totals.get(name, 0.0) + ms
            if parent is not None and not probe and self.spans[parent][0] == "run":
                totals["attributed"] = totals.get("attributed", 0.0) + ms
        for totals in runs.values():
            totals["unattributed"] = totals["run"] - totals.pop("attributed", 0.0)
        return runs


def frontend(rec: SpanRecorder, cache: CodeCache, filename: str, source: str, sizes: dict):
    """``ArtifactBuilder.compile`` composed from its layer calls."""
    code = rec.call("bytecode.cache_load", cache.lookup, filename, source)
    if code is not None:
        return code, True
    tokens = rec.call("lang.lex", tokenize, source, filename)
    program = rec.call("lang.parse", Parser(tokens, filename).parse_program)
    code = rec.call("bytecode.compile", Compiler(filename).compile_program, program)
    rewrites = rec.call("bytecode.optimize", optimize_code, code)
    rec.call("bytecode.cache_store", cache.store, filename, source, code)
    sizes["lex_tokens"] += len(tokens)
    sizes["instructions"] += sum(len(c.instructions) for c in code.iter_code_objects())
    sizes["optimize_rewrites"] += rewrites.total
    return code, False


def artifact(filename: str, source: str, code) -> ScriptArtifact:
    digest = source_hash(source)
    return ScriptArtifact(
        filename=filename,
        source=source,
        source_hash=digest,
        key=f"{filename}:{digest}",
        code=code,
    )


def composed_run(
    rec: SpanRecorder,
    scripts,
    seed: int,
    config: RICConfig,
    *,
    store: RecordStore | None = None,
    store_dir=None,
    cache_dir=None,
    artifacts=None,
    publish: bool = True,
):
    """One traced run.  Pass ``store_dir`` and ``cache_dir`` to load both
    from disk (a new engine), or a loaded ``store`` and in-memory
    ``artifacts`` (a long-lived engine).  Returns ``(session, sizes)``."""
    sizes = {"lex_tokens": 0, "instructions": 0, "optimize_rewrites": 0}
    rec.begin_run()
    load_span = None
    if store is None:
        store = rec.call("ric.store_load", RecordStore, store_dir)
        load_span = rec.last("ric.store_load")
    if artifacts is None:
        cache = CodeCache(cache_dir=str(cache_dir))
        artifacts = []
        for filename, source in scripts:
            code, hit = frontend(rec, cache, filename, source, sizes)
            artifacts.append((artifact(filename, source, code), hit))
    records = rec.call("ric.fetch", store.records_for, scripts)
    session = rec.call(
        "core.preflight",
        RunSession,
        artifacts,
        config=config,
        seed=seed,
        name="perfbench",
        icrecord=records or None,
        counters=Counters(),
    )
    preflight_span = rec.last("core.preflight")
    profile = rec.call("core.execute", session.execute)
    sizes["output"] = suite.printed(profile)
    published = []
    if publish:
        per_script = rec.call("ric.extract", session.extract_per_script_records)
        sources = dict(scripts)
        for filename, record in per_script.items():
            if filename in sources:
                rec.call("ric.put", store.put, filename, sources[filename], record)
                published.append((rec.last("ric.put"), record))
    rec.end_run()

    # Probes: same pure calls on the same inputs, outside the run span.
    for record in records:
        if load_span is not None:
            envelope = json.loads(_encode(record))
            rec.probe("ric.decode", load_span, record_from_envelope, envelope)
        rec.probe("ric.validate", preflight_span, validate_record, record)
    if config.specialize and records:
        for art, _ in artifacts:
            trusted = [r for r in records if art.key in r.script_keys]
            if trusted:
                rec.probe("specialize.quicken", preflight_span, _quicken, art.code, trusted)
    for put_span, record in published:
        rec.probe("ric.encode", put_span, _encode, record)
    return session, sizes


def _quicken(code, records):
    return quicken_code(code, merge_site_feedback(records))


def _encode(record) -> str:
    """What ``RecordStore.put`` serializes (records carry one script key)."""
    return json.dumps(record_to_envelope(record, extra={"key": record.script_keys[0]}))


# -- one workload, traced -------------------------------------------------


class TracedWorkload:
    """Pairs of (untraced Engine run, traced composed run) over one set-up."""

    def __init__(self, name: str, setup, dirs, expected: dict, seed: int):
        self.name = name
        self.setup = setup
        self.dirs = dirs
        self.expected = expected
        self.config = RICConfig()  # what Engine() uses
        self.rec = SpanRecorder()
        #: Run id -> per-run values of every traced run that completed.
        self.rows: dict = {}
        #: Run id -> wall time of the run's untraced twin, in ms.
        self.untraced_ms: dict = {}
        #: Run id -> wall-to-reference-speed factor (see hostspeed).
        self.scales: dict = {}
        self.script_keys: list = []
        self._made: list = []
        self._rng = random.Random(seed ^ 0x7ACE)
        if name == "hot_loop":
            # The long-lived engine's in-memory artifacts and store.
            cache = CodeCache(cache_dir=str(setup.cache_dir))
            self.hot_artifacts = [
                (artifact(filename, source, cache.lookup(filename, source)), True)
                for filename, source in setup.scripts
            ]
            self.hot_store = RecordStore(setup.store_dir)

    def iteration(self) -> None:
        """One untraced twin plus one traced run, in alternating order.

        Raises on a failed run or check.  A run that completed keeps its
        row even when a check fails: its timings are still measurements.
        """
        if self.name == "hot_loop":
            scripts, engine_seed = self.setup.scripts, None
            seed = self._rng.getrandbits(48)
        else:
            scripts, engine_seed = next(self.setup.inputs)
            seed = Engine(seed=engine_seed).draw_seed()  # the run seed user_run gets
        twin_first = len(self.rows) % 2 == 0
        before = hostspeed.reference_ms()
        try:
            if twin_first:
                twin, twin_output, twin_ms = self._untraced(scripts, engine_seed, seed)
            session, sizes = self._traced(scripts, seed)
            if not twin_first:
                twin, twin_output, twin_ms = self._untraced(scripts, engine_seed, seed)
        finally:
            for path in self._made:
                self.dirs.discard(path)
            self._made.clear()
        run_id = self.rec.run_id
        self.scales[run_id] = 2.0 * hostspeed.REFERENCE_MS / (before + hostspeed.reference_ms())
        self.script_keys.append(list(session.script_keys))
        self.rows[run_id] = _row(session, sizes)
        self.untraced_ms[run_id] = twin_ms
        if sizes["output"] != suite.expected_output(scripts, self.expected):
            raise AssertionError("traced output differs from reference")
        if twin_output != sizes["output"]:
            raise AssertionError("untraced output differs from traced output")
        if session.counters.as_dict() != twin.counters.as_dict():
            raise AssertionError("traced counters differ from the untraced Engine run")
        if self.name == "warm_reuse":
            cold = Engine()
            cold.run(scripts, name="perfbench", seed=seed)
            if serialize_user_globals(cold.last_run.runtime) != serialize_user_globals(
                session.runtime
            ):
                raise AssertionError("reuse changed user-visible globals")

    def _untraced(self, scripts, engine_seed, seed: int):
        """The same run through ``Engine``, timed like the end-to-end runs."""
        if self.name == "hot_loop":
            start = perf_counter()
            profile = self.setup.engine.run(scripts, name="perfbench", use_store=True, seed=seed)
            output = suite.printed(profile)
        else:
            cache_dir, store_dir = self._dirs()
            start = perf_counter()
            profile, output, _, _ = suite.user_run(cache_dir, store_dir, scripts, engine_seed)
        return profile, output, (perf_counter() - start) * 1000.0

    def _traced(self, scripts, seed: int):
        if self.name == "hot_loop":
            return composed_run(
                self.rec,
                scripts,
                seed,
                self.config,
                store=self.hot_store,
                artifacts=self.hot_artifacts,
                publish=False,
            )
        cache_dir, store_dir = self._dirs()
        return composed_run(
            self.rec, scripts, seed, self.config, store_dir=store_dir, cache_dir=cache_dir
        )

    def _dirs(self):
        cache_dir, store_dir, used = suite.run_dirs(self.name, self.setup, self.dirs)
        self._made.append(used)
        return cache_dir, store_dir

    def metrics(self) -> dict:
        """Per-layer metrics: the median over traced runs of each value.

        Times are at reference host speed.  The overhead compares each
        traced run with its adjacent untraced twin."""
        per_run = self.rec.per_run_ms()
        values: dict = {}
        for run_id, row in self.rows.items():
            totals, scale = per_run[run_id], self.scales[run_id]
            timed = {f"{layer}_ms": totals.get(layer, 0.0) for layer in TIMED_LAYERS}
            timed["trace.run_ms"] = totals["run"]
            timed["trace.unattributed_ms"] = totals["unattributed"]
            timed["trace.overhead_ms"] = totals["run"] - self.untraced_ms[run_id]
            for key, value in timed.items():
                values.setdefault(key, []).append(value * scale)
            for key, value in row.items():
                values.setdefault(key, []).append(value)
        return {key: statistics.median(series) for key, series in values.items()}


def _row(session: RunSession, sizes: dict) -> dict:
    counters = session.counters
    guarded = counters.specialized_hits + counters.deopts
    lookups = counters.bytecode_cache_hits + counters.bytecode_cache_misses
    return {
        "lang.lex_tokens": sizes["lex_tokens"],
        "bytecode.instructions": sizes["instructions"],
        "bytecode.optimize_rewrites": sizes["optimize_rewrites"],
        "bytecode.cache_hit_ratio": counters.bytecode_cache_hits / lookups if lookups else 0.0,
        "specialize.sites": counters.specialized_sites,
        "specialize.guard_hit_ratio": counters.specialized_hits / guarded if guarded else 0.0,
        "interpreter.dispatches": counters.dispatches,
        "interpreter.modeled_instructions": counters.total_instructions,
        "ic.misses": counters.ic_misses,
        "ic.miss_rate": counters.ic_miss_rate,
        "ic.handlers_generated": counters.handlers_generated,
        "ic.hidden_classes_created": counters.hidden_classes_created,
        "ic.hits_on_preloaded": counters.ic_hits_on_preloaded,
        "ric.preloads": counters.ric_preloads,
        "ric.records_refused": counters.ric_records_corrupt + counters.ric_records_rejected,
        "runtime.heap_bytes": session.profile.heap_bytes,
    }
