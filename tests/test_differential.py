"""Differential cold-vs-reuse wall: RIC must never change what a program does.

For every workload (the seven paper libraries plus the default synthetic
library) we run the full protocol — Initial run, ICRecord extraction, a
Conventional ("cold") run and a RIC Reuse run — and require that reuse is
observationally invisible:

* byte-identical console output,
* byte-identical final heap-observable state (the canonical, address-free
  ``serialize_user_globals`` serialization),
* no degraded-record counters (``ric_records_corrupt`` /
  ``ric_records_rejected`` stay zero — the record we just extracted must
  never be refused),

while still actually engaging the mechanism (preloads happen, misses go
down).  The interpreter fast paths are enabled (the default), so this
suite also guards the monomorphic GET_PROP/SET_PROP shortcuts against
semantic drift.
"""

from __future__ import annotations

import json

import pytest

from repro.core.budget import ExecutionBudget
from repro.core.engine import Engine
from repro.core.errors import StepBudgetExceeded
from repro.harness.bench import bench_workloads
from repro.ric.store import RecordStore
from repro.ric.validate import validate_record
from tests.helpers import ColdReuseRuns, run_cold_and_reused

WORKLOAD_NAMES = (
    "angularlike",
    "reactlike",
    "jquerylike",
    "underscorelike",
    "handlebarslike",
    "camanlike",
    "jsfeatlike",
    "synthetic",
    "polyshapes",
    "typedarith",
)

#: Counters allowed to differ between a quickened and a generic reuse run
#: of the same workload: the specialization tallies themselves, plus the
#: modeled instruction costs (typed property hits charge SPECIALIZED_PROP
#: instead of the IC fast-path cost — that discount is the whole point).
#: Everything else — IC hit/miss/tier counts included — must be *exactly*
#: equal: specialization may change how fast a site is serviced, never
#: how often it hits or what it observes.
SPECIALIZE_VARIANT_COUNTERS = frozenset(
    (
        "instructions",
        "total_instructions",
        "specialized_sites",
        "specialized_hits",
        "deopts",
        "despecialized_sites",
    )
)


@pytest.fixture(scope="module")
def runs_by_workload() -> dict[str, ColdReuseRuns]:
    scripts_by_name = bench_workloads()
    assert set(WORKLOAD_NAMES) == set(scripts_by_name), (
        "differential suite out of sync with the bench workload registry"
    )
    return {
        name: run_cold_and_reused(scripts_by_name[name], seed=11, name=name)
        for name in WORKLOAD_NAMES
    }


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestColdVsReuseDifferential:
    def test_console_output_identical(self, runs_by_workload, name):
        runs = runs_by_workload[name]
        assert runs.cold.console_output == runs.reused.console_output
        # Workloads that print nothing would make this vacuous.
        assert runs.cold.console_output, f"{name} produced no observable output"

    def test_heap_observable_state_identical(self, runs_by_workload, name):
        runs = runs_by_workload[name]
        cold_blob = json.dumps(runs.cold_state, sort_keys=True)
        reused_blob = json.dumps(runs.reused_state, sort_keys=True)
        assert cold_blob == reused_blob
        assert runs.cold_state, f"{name} left no user globals to compare"

    def test_record_never_degrades(self, runs_by_workload, name):
        counters = runs_by_workload[name].reused.counters
        assert counters.ric_records_corrupt == 0
        assert counters.ric_records_rejected == 0

    def test_reuse_engages_the_mechanism(self, runs_by_workload, name):
        runs = runs_by_workload[name]
        assert runs.reused.counters.ric_preloads > 0
        assert runs.reused.counters.ic_hits_on_preloaded > 0
        assert runs.reused.counters.ic_misses < runs.cold.counters.ic_misses


class TestPolymorphicColdVsReuse:
    """The wall extended to POLY/MEGA sites (INTERNALS §13): a record
    persisted from a polymorphic run preloads full slot *sets*, reuse
    stays observationally invisible at every tier, and corrupt slot data
    degrades per-record instead of crashing."""

    @pytest.fixture(scope="class")
    def poly_runs(self) -> ColdReuseRuns:
        scripts = bench_workloads()["polyshapes"]
        return run_cold_and_reused(scripts, seed=11, name="polyshapes")

    def test_record_persists_polymorphic_slot_sets(self, poly_runs):
        from repro.ic.icvector import POLY_LIMIT

        stats = poly_runs.record.stats()
        assert stats["poly_slot_sites"] > 0
        for slots in poly_runs.record.site_slots.values():
            assert 1 <= len(slots) <= POLY_LIMIT

    def test_poly_reuse_is_observationally_invisible(self, poly_runs):
        assert poly_runs.cold.console_output == poly_runs.reused.console_output
        cold_blob = json.dumps(poly_runs.cold_state, sort_keys=True)
        reused_blob = json.dumps(poly_runs.reused_state, sort_keys=True)
        assert cold_blob == reused_blob

    def test_poly_reuse_engages_every_tier(self, poly_runs):
        cold, reused = poly_runs.cold.counters, poly_runs.reused.counters
        assert reused.ric_preloads > 0
        assert cold.ic_hits_poly > 0 and reused.ic_hits_poly > 0
        assert cold.ic_hits_mega > 0 and reused.ic_hits_mega > 0
        assert reused.ic_misses < cold.ic_misses
        # MEGA sites persist nothing (their slots were cleared at the
        # transition), so the reuse run re-learns them organically and
        # crosses into MEGA exactly as often as the cold run did.
        assert cold.ic_mega_transitions > 0
        assert reused.ic_mega_transitions == cold.ic_mega_transitions

    def test_invalid_slot_plan_is_rejected_per_record(self, poly_runs):
        """A slot list pointing at a nonexistent hidden-class row fails
        validation: the record is refused (``ric_records_rejected``), the
        run silently degrades to cold, output stays identical."""
        import dataclasses

        from repro.ric.icrecord import SiteSlot

        bad_slots = dict(poly_runs.record.site_slots)
        site_key = next(iter(bad_slots))
        bad_slots[site_key] = [SiteSlot(hcid=10**6, handler_id=0)]
        bad_record = dataclasses.replace(poly_runs.record, site_slots=bad_slots)

        scripts = bench_workloads()["polyshapes"]
        runs = run_cold_and_reused(
            scripts, seed=11, name="polyshapes", icrecord=bad_record
        )
        assert runs.reused.counters.ric_records_rejected == 1
        assert runs.reused.counters.ric_preloads == 0
        assert runs.cold.console_output == runs.reused.console_output

    def test_truncated_slot_wire_data_is_corrupt_not_fatal(self, poly_runs):
        """Mangled ``site_slots`` wire data fails the parse (a
        RecordFormatError, never an arbitrary crash) and the CorruptRecord
        path degrades the run with ``ric_records_corrupt`` moving."""
        from repro.ric.errors import CorruptRecord, RecordFormatError
        from repro.ric.serialize import record_from_json, record_to_json

        blob = record_to_json(poly_runs.record)
        assert blob["site_slots"]  # the wire format carries the slot sets
        truncated = json.loads(json.dumps(blob))
        site_key = next(iter(truncated["site_slots"]))
        truncated["site_slots"][site_key] = "garbage"
        with pytest.raises(RecordFormatError):
            record_from_json(truncated)

        scripts = bench_workloads()["polyshapes"]
        corrupt = CorruptRecord(source="polyshapes.jsl", error="truncated slots")
        runs = run_cold_and_reused(
            scripts, seed=11, name="polyshapes", icrecord=corrupt
        )
        assert runs.reused.counters.ric_records_corrupt == 1
        assert runs.cold.console_output == runs.reused.console_output


class TestPolymorphicStoreRoundTrip:
    """Acceptance criterion: a record persisted from a polymorphic run
    round-trips through a RecordStore and preloads slot sets in a second
    engine; corrupt slot data on disk is quarantined, never fatal."""

    def _scripts(self):
        return bench_workloads()["polyshapes"]

    def test_two_engines_share_polymorphic_records(self, tmp_path):
        scripts = self._scripts()
        store_a = RecordStore(directory=tmp_path)
        a = Engine(seed=21, record_store=store_a)
        cold = a.run(scripts, name="warm", use_store=True)
        assert cold.mode == "initial"  # store empty: truly cold
        assert a.publish_records(counters=cold.counters) > 0

        store_b = RecordStore(directory=tmp_path)
        assert store_b.load_errors == []
        b = Engine(seed=22, record_store=store_b)
        reused = b.run(scripts, name="reuse", use_store=True)
        assert reused.mode == "reuse-ric"
        assert reused.console_output == cold.console_output
        assert reused.counters.ric_preloads > 0
        assert reused.counters.ic_hits_poly > 0
        assert reused.counters.ic_misses < cold.counters.ic_misses

    def test_corrupt_store_entry_is_quarantined(self, tmp_path):
        scripts = self._scripts()
        a = Engine(seed=21, record_store=RecordStore(directory=tmp_path))
        cold = a.run(scripts, name="warm", use_store=True)
        a.publish_records()

        # Rot every persisted record on disk.
        paths = list(tmp_path.glob("*.icrecord.json"))
        assert paths
        for path in paths:
            path.write_text(path.read_text()[: len(path.read_text()) // 2])

        store = RecordStore(directory=tmp_path)
        assert store.load_errors  # quarantined, surfaced, not raised
        assert len(store) == 0
        c = Engine(seed=23, record_store=store)
        degraded = c.run(scripts, name="degraded", use_store=True)
        assert degraded.console_output == cold.console_output


@pytest.fixture(scope="module")
def specialize_runs_by_workload() -> dict[str, tuple[ColdReuseRuns, ColdReuseRuns]]:
    """Every registry workload, run through the full protocol twice: once
    with bytecode specialization (the default) and once with it forced
    off.  Same seed, so everything observable must coincide."""
    from repro.core.config import RICConfig

    scripts_by_name = bench_workloads()
    out = {}
    for name in WORKLOAD_NAMES:
        on = run_cold_and_reused(
            scripts_by_name[name],
            seed=17,
            name=name,
            config=RICConfig(specialize=True),
        )
        off = run_cold_and_reused(
            scripts_by_name[name],
            seed=17,
            name=name,
            config=RICConfig(specialize=False),
        )
        out[name] = (on, off)
    return out


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestSpecializeDifferential:
    """The specialization wall (INTERNALS §14): quickened reuse must be
    observationally identical to generic reuse over every registry
    workload — byte-identical output, byte-identical user-visible heap,
    and exactly-equal counters outside the specialization tallies and
    the modeled instruction costs they discount."""

    def test_outputs_identical(self, specialize_runs_by_workload, name):
        on, off = specialize_runs_by_workload[name]
        assert on.reused.console_output == off.reused.console_output
        assert on.reused.console_output, f"{name} produced no output"

    def test_heap_observable_state_identical(
        self, specialize_runs_by_workload, name
    ):
        on, off = specialize_runs_by_workload[name]
        on_blob = json.dumps(on.reused_state, sort_keys=True)
        off_blob = json.dumps(off.reused_state, sort_keys=True)
        assert on_blob == off_blob

    def test_counters_equal_outside_specialization(
        self, specialize_runs_by_workload, name
    ):
        on, off = specialize_runs_by_workload[name]
        on_dict = on.reused.counters.as_dict()
        off_dict = off.reused.counters.as_dict()
        divergent = {
            key
            for key in on_dict
            if on_dict[key] != off_dict[key]
            and key not in SPECIALIZE_VARIANT_COUNTERS
        }
        assert not divergent, f"{name}: unexpected counter drift: {divergent}"
        # The IC layer in particular is untouched: typed property hits
        # book the same accesses/hits/tier counts the generic fast path
        # would have.
        for key in ("ic_accesses", "ic_hits", "ic_misses",
                    "ic_hits_mono", "ic_hits_poly", "ic_hits_mega",
                    "ic_hits_on_preloaded"):
            assert on_dict[key] == off_dict[key], f"{name}: {key} diverged"

    def test_cold_runs_are_unaffected(self, specialize_runs_by_workload, name):
        """Quickening only happens on reuse runs (there is no feedback to
        spend before a record exists), so cold runs are counter-identical
        bit for bit, specialization tallies included."""
        on, off = specialize_runs_by_workload[name]
        assert on.cold.counters.as_dict() == off.cold.counters.as_dict()
        assert on.cold.counters.specialized_sites == 0

    def test_specialization_engages_where_applicable(
        self, specialize_runs_by_workload, name
    ):
        """The wall must not hold vacuously: on the type-stable showcase
        workload the quickened reuse run actually executes typed opcodes
        (with zero deopts) and its modeled cost beats generic reuse."""
        if name != "typedarith":
            pytest.skip("engagement gate runs on the showcase workload")
        on, off = specialize_runs_by_workload[name]
        counters = on.reused.counters
        assert counters.specialized_sites > 0
        assert counters.specialized_hits > 0
        assert counters.deopts == 0
        assert off.reused.counters.specialized_sites == 0
        assert (
            on.reused.modeled_time_ms < off.reused.modeled_time_ms
        ), "quickened reuse should cost less than generic reuse"


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestBudgetAbortDifferential:
    """Governance differential (INTERNALS §10): a budget abort must leave
    no poison behind.  The partial record extracted from an aborted run
    validates and persists cleanly, and the *same engine*, run unbudgeted
    afterwards, reproduces the exact cold/reuse counters of an engine
    that never aborted."""

    #: Every workload dispatches > ~2.5k bytecodes, so this aborts all
    #: of them partway through (amortized at a 64-dispatch stride).
    ABORT_BUDGET = ExecutionBudget(max_steps=2000, check_stride=64)

    def test_abort_leaves_no_poison(self, name, tmp_path):
        scripts = bench_workloads()[name]
        survivor = Engine(seed=11)
        with pytest.raises(StepBudgetExceeded):
            survivor.run(scripts, name=name, budget=self.ABORT_BUDGET)

        # The partial records validate and survive a disk round trip.
        partial = survivor.extract_per_script_records()
        store = RecordStore(directory=tmp_path)
        for filename, record in partial.items():
            assert validate_record(record) == [], filename
            store.put(filename, f"src-of-{filename}", record)
        reloaded = RecordStore(directory=tmp_path)
        assert reloaded.load_errors == []
        assert len(reloaded) == len(partial)

        # The survivor engine now runs the full protocol unbudgeted and
        # must be counter-identical to an engine with no abort history.
        cold = survivor.run(scripts, name=name)
        record = survivor.extract_icrecord()
        assert validate_record(record) == []
        reused = survivor.run(scripts, name=name, icrecord=record)

        pristine = run_cold_and_reused(scripts, seed=11, name=name)
        assert cold.console_output == pristine.cold.console_output
        assert reused.console_output == pristine.reused.console_output
        assert cold.counters.as_dict() == pristine.cold.counters.as_dict()
        assert reused.counters.as_dict() == pristine.reused.counters.as_dict()


# -- fresh compile vs cache-loaded code ------------------------------------------

#: A program whose reuse run deopts a quickened site: the library's
#: ``add`` trains on ints, then the reuse run pushes strings through it.
DEOPT_CASE = "deopt"
CODE_CACHE_CASES = WORKLOAD_NAMES + (DEOPT_CASE,)


def _code_cache_case(name: str):
    """``(training scripts, run scripts, per-script record to reuse or
    None for the whole-run record)``."""
    if name == DEOPT_CASE:
        from tests.test_specialize import APP_NUMERIC, APP_STRINGS, LIB

        return (
            [("lib.jsl", LIB), ("app1.jsl", APP_NUMERIC)],
            [("lib.jsl", LIB), ("app2.jsl", APP_STRINGS)],
            "lib.jsl",
        )
    scripts = bench_workloads()[name]
    return scripts, scripts, None


def _observe_protocol(engine: Engine, name: str) -> list:
    """Initial run, extraction, then a cold and a reuse run; returns each
    of the last two as ``(output, serialized heap, counters)``."""
    from repro.baselines.snapshot import serialize_user_globals

    train, scripts, record_file = _code_cache_case(name)
    engine.run(train, name=name)
    if record_file is None:
        record = engine.extract_icrecord()
    else:
        record = engine.extract_per_script_records()[record_file]
    observed = []
    for icrecord in (None, record):
        profile = engine.run(scripts, name=name, icrecord=icrecord)
        heap = serialize_user_globals(engine.last_run.runtime)
        observed.append(
            (
                profile.console_output,
                json.dumps(heap, sort_keys=True),
                profile.counters.as_dict(),
            )
        )
    return observed


@pytest.fixture(scope="module")
def code_cache_arms(tmp_path_factory) -> dict:
    """Per case: the sources, the protocol observed on freshly compiled
    code, the engine that ran on code loaded from a disk cache, and the
    protocol observed there.  Both arms prime their code cache before
    running, so every run of either arm is a code-cache hit."""
    out = {}
    for name in CODE_CACHE_CASES:
        train, scripts, _ = _code_cache_case(name)
        sources = dict(train + scripts)
        cache_dir = str(tmp_path_factory.mktemp(f"code-cache-{name}"))
        filler = Engine(cache_dir=cache_dir)
        fresh = Engine(seed=29)
        loaded = Engine(seed=29, cache_dir=cache_dir)
        for engine in (filler, fresh, loaded):
            for filename, source in sources.items():
                engine.compile(filename, source)
        assert loaded.code_cache.hits == len(sources)
        assert loaded.code_cache.misses == 0
        out[name] = (
            sources,
            _observe_protocol(fresh, name),
            loaded,
            _observe_protocol(loaded, name),
        )
    return out


@pytest.mark.parametrize("name", CODE_CACHE_CASES)
class TestCodeCacheDifferential:
    """Code loaded from the disk cache must behave exactly like the
    compiler's output: identical output, heap and counters on the cold
    and the reuse run — and running it (quickening, deopt patching)
    must leave the cached tree equal to a fresh compile."""

    def test_runs_are_identical(self, code_cache_arms, name):
        _, fresh, _, loaded = code_cache_arms[name]
        for (f_out, f_heap, f_counters), (l_out, l_heap, l_counters) in zip(
            fresh, loaded
        ):
            assert f_out == l_out
            assert f_out, f"{name} produced no output"
            assert f_heap == l_heap
            assert f_counters == l_counters

    def test_cached_tree_still_equals_a_fresh_compile(self, code_cache_arms, name):
        from repro.bytecode.compiler import compile_source
        from repro.bytecode.optimizer import optimize_code
        from tests.helpers import code_fingerprint

        sources, _, loaded, _ = code_cache_arms[name]
        for filename, source in sources.items():
            expected = compile_source(source, filename)
            optimize_code(expected)
            cached = loaded.code_cache.lookup(filename, source)
            assert code_fingerprint(cached) == code_fingerprint(expected)


def test_code_cache_deopt_case_deopts(code_cache_arms):
    """The deopt case is not vacuous: with specialization on, its reuse
    run on cache-loaded code quickens a site and deopts it."""
    _, _, loaded, observed = code_cache_arms[DEOPT_CASE]
    reused_counters = observed[1][2]
    if loaded.config.specialize:
        assert reused_counters["deopts"] > 0
    else:
        assert reused_counters["specialized_sites"] == 0
