"""Tests for per-script ICRecords and the RecordStore (paper §9's claim
that RIC information is per-file and shareable across applications)."""

from pathlib import Path

import pytest

from repro.core.engine import Engine
from repro.ric.icrecord import filename_of_creation_key
from repro.ric.store import RecordStore

LIB_SOURCE = """
var lib = (function () {
  function Widget(name) { this.name = name; this.visible = true; }
  Widget.prototype.describe = function () { return this.name; };
  var registry = {};
  function register(name) {
    var w = new Widget(name);
    registry[name] = w;
    return w;
  }
  register("alpha");
  register("beta");
  var total = 0;
  for (var k in registry) {
    var widget = registry[k];
    if (widget.visible) { total += widget.name.length; }
  }
  console.log("lib ready:", total === 9);
  return { register: register, count: total };
})();
"""

APP_A = [("lib.jsl", LIB_SOURCE), ("app_a.jsl", "var a = lib.count; console.log('a', a);")]
APP_B = [("app_b.jsl", "var b = 1; console.log('b', b);"), ("lib.jsl", LIB_SOURCE)]


class TestCreationKeyParsing:
    def test_site_keys(self):
        assert filename_of_creation_key("lib.jsl:10:3:named_store") == "lib.jsl"

    def test_ctor_keys(self):
        assert filename_of_creation_key("ctor:lib.jsl:2:3#Widget:0") == "lib.jsl"

    def test_builtin_and_native_keys(self):
        assert filename_of_creation_key("builtin:EmptyObject") is None
        assert filename_of_creation_key("native:Object.assign") is None


class TestPerScriptExtraction:
    def test_one_record_per_script(self, engine):
        engine.run(APP_A, name="app-a")
        records = engine.extract_per_script_records()
        assert set(records) == {"lib.jsl", "app_a.jsl"}

    def test_records_are_self_contained(self, engine):
        engine.run(APP_A, name="app-a")
        records = engine.extract_per_script_records()
        lib = records["lib.jsl"]
        # Local HCIDs are dense 0..n-1.
        assert [row.hcid for row in lib.hcvt] == list(range(len(lib.hcvt)))
        # Every TOAST pair references valid local ids.
        for pairs in lib.toast.values():
            for pair in pairs:
                assert pair.outgoing_hcid < len(lib.hcvt)
                if pair.incoming_hcid is not None:
                    assert pair.incoming_hcid < len(lib.hcvt)
        # Every dependent handler id is valid.
        for row in lib.hcvt:
            for dependent in row.dependents:
                assert dependent.handler_id < len(lib.handlers)

    def test_dependents_stay_within_their_file(self, engine):
        engine.run(APP_A, name="app-a")
        records = engine.extract_per_script_records()
        for filename, record in records.items():
            for row in record.hcvt:
                for dependent in row.dependents:
                    assert dependent.site_key.startswith(filename)

    def test_builtin_entries_present_in_every_record(self, engine):
        engine.run(APP_A, name="app-a")
        records = engine.extract_per_script_records()
        for record in records.values():
            assert "builtin:EmptyObject" in record.toast

    def test_requires_a_run(self, engine):
        with pytest.raises(RuntimeError):
            engine.extract_per_script_records()


AMBIGUOUS_SOURCE = """
function make() { function P(x) { this.x = x; this.y = x; } return P; }
var A = make(), B = make();
var a = new A(1), b = new B(2);
function rd(o) { return o.x + o.y; }
console.log(rd(a) + rd(b));
"""


class TestAmbiguityRule:
    """One creation key that produced two hidden classes (two closures of
    the same constructor) cannot identify its class, so both extractors
    drop that TOAST signature — and only that."""

    KEY = "ctor:lib.jsl:2:19#P:0"

    def test_ambiguous_key_dropped_from_both_records(self):
        engine = Engine(seed=5)
        engine.run([("lib.jsl", AMBIGUOUS_SOURCE)], name="amb")
        creations = [
            hc
            for hc in engine.last_run.runtime.hidden_classes.all_classes
            if hc.creation_key == self.KEY
        ]
        assert len(creations) == 2
        whole = engine.extract_icrecord()
        per_file = engine.extract_per_script_records()["lib.jsl"]
        assert self.KEY not in whole.toast
        assert self.KEY not in per_file.toast

        runs = [
            engine.run([("lib.jsl", AMBIGUOUS_SOURCE)], name="amb", icrecord=record)
            for record in (whole, per_file)
        ]
        assert [run.console_output for run in runs] == [["6"], ["6"]]
        assert runs[0].counters.ric_preloads == runs[1].counters.ric_preloads
        assert runs[0].counters.ic_misses == runs[1].counters.ic_misses


class TestCrossApplicationReuse:
    """The §9 scenario: lib.jsl's record, extracted while running app A,
    accelerates a *different* application that loads the same library."""

    def test_lib_record_transfers_to_other_app(self):
        engine = Engine(seed=17)
        engine.run(APP_A, name="app-a")
        records = engine.extract_per_script_records()
        lib_record = records["lib.jsl"]

        conventional = engine.run(APP_B, name="app-b")
        ric = engine.run(APP_B, name="app-b", icrecord=[lib_record])
        assert ric.console_output == conventional.console_output
        assert ric.counters.ic_misses < conventional.counters.ic_misses
        assert ric.counters.ric_preloads > 0

    def test_multiple_records_compose(self):
        engine = Engine(seed=17)
        engine.run(APP_A, name="app-a")
        records = list(engine.extract_per_script_records().values())
        ric = engine.run(APP_A, name="app-a", icrecord=records)
        conventional = engine.run(APP_A, name="app-a")
        assert ric.counters.ic_misses < conventional.counters.ic_misses

    def test_composition_roughly_matches_monolithic_record(self):
        engine = Engine(seed=17)
        engine.run(APP_A, name="app-a")
        monolithic = engine.extract_icrecord()
        per_script = list(engine.extract_per_script_records().values())

        ric_mono = engine.run(APP_A, name="app-a", icrecord=monolithic)
        ric_multi = engine.run(APP_A, name="app-a", icrecord=per_script)
        # Per-script records drop cross-file links, so they avert at most as
        # many misses — but must still be clearly better than nothing.
        conventional = engine.run(APP_A, name="app-a")
        assert ric_mono.counters.ic_misses <= ric_multi.counters.ic_misses
        assert ric_multi.counters.ic_misses < conventional.counters.ic_misses


class TestRecordStore:
    def test_put_get_round_trip(self, engine):
        engine.run(APP_A, name="app-a")
        records = engine.extract_per_script_records()
        store = RecordStore()
        store.put("lib.jsl", LIB_SOURCE, records["lib.jsl"])
        assert store.get("lib.jsl", LIB_SOURCE) is records["lib.jsl"]
        assert len(store) == 1

    def test_source_change_misses(self, engine):
        engine.run(APP_A, name="app-a")
        records = engine.extract_per_script_records()
        store = RecordStore()
        store.put("lib.jsl", LIB_SOURCE, records["lib.jsl"])
        assert store.get("lib.jsl", LIB_SOURCE + "\n// v2") is None

    def test_records_for_scripts(self, engine):
        engine.run(APP_A, name="app-a")
        records = engine.extract_per_script_records()
        store = RecordStore()
        store.put("lib.jsl", LIB_SOURCE, records["lib.jsl"])
        assert len(store.records_for(APP_B)) == 1  # only lib.jsl is known

    def test_directory_persistence(self, engine, tmp_path):
        engine.run(APP_A, name="app-a")
        records = engine.extract_per_script_records()
        store = RecordStore(directory=tmp_path)
        store.put("lib.jsl", LIB_SOURCE, records["lib.jsl"])

        fresh = RecordStore(directory=tmp_path)  # simulate a new process
        loaded = fresh.get("lib.jsl", LIB_SOURCE)
        assert loaded is not None
        assert loaded.stats()["dependent_links"] == records["lib.jsl"].stats()[
            "dependent_links"
        ]

    def test_corrupt_directory_entries_ignored(self, tmp_path):
        (tmp_path / "junk.icrecord.json").write_text("{ nope")
        store = RecordStore(directory=tmp_path)
        assert len(store) == 0

    def test_corrupt_entries_are_counted_and_quarantined(self, tmp_path):
        (tmp_path / "junk.icrecord.json").write_text("{ nope")
        store = RecordStore(directory=tmp_path)
        assert len(store.load_errors) == 1
        assert store.load_errors[0][0] == "junk.icrecord.json"
        # The bad entry is moved aside, not left to fail again.
        assert not (tmp_path / "junk.icrecord.json").exists()
        assert (tmp_path / "junk.icrecord.json.corrupt").exists()

    def test_quarantine_can_be_disabled(self, tmp_path):
        (tmp_path / "junk.icrecord.json").write_text("{ nope")
        store = RecordStore(directory=tmp_path, quarantine=False)
        assert len(store.load_errors) == 1
        assert (tmp_path / "junk.icrecord.json").exists()

    def test_quarantine_names_do_not_collide(self, tmp_path):
        (tmp_path / "junk.icrecord.json").write_text("{ nope")
        (tmp_path / "junk.icrecord.json.corrupt").write_text("older casualty")
        RecordStore(directory=tmp_path)
        assert (tmp_path / "junk.icrecord.json.corrupt.1").exists()

    def test_stale_format_version_is_quarantined(self, engine, tmp_path):
        """A valid v2-era file (no envelope) must be refused and moved."""
        engine.run(APP_A, name="app-a")
        records = engine.extract_per_script_records()
        store = RecordStore(directory=tmp_path)
        store.put("lib.jsl", LIB_SOURCE, records["lib.jsl"])

        import json

        from repro.ric import record_to_json

        legacy = record_to_json(records["lib.jsl"])
        legacy["version"] = 2
        (tmp_path / "legacy.icrecord.json").write_text(
            json.dumps({"key": "lib.jsl:deadbeef", "record": legacy})
        )
        fresh = RecordStore(directory=tmp_path)
        assert len(fresh) == 1  # only the healthy entry
        assert len(fresh.load_errors) == 1
        assert (tmp_path / "legacy.icrecord.json.corrupt").exists()

    def test_load_errors_empty_on_healthy_directory(self, engine, tmp_path):
        engine.run(APP_A, name="app-a")
        records = engine.extract_per_script_records()
        store = RecordStore(directory=tmp_path)
        store.put("lib.jsl", LIB_SOURCE, records["lib.jsl"])
        assert RecordStore(directory=tmp_path).load_errors == []

    def test_put_leaves_no_temp_droppings(self, engine, tmp_path):
        engine.run(APP_A, name="app-a")
        records = engine.extract_per_script_records()
        store = RecordStore(directory=tmp_path)
        for _ in range(5):
            store.put("lib.jsl", LIB_SOURCE, records["lib.jsl"])
        assert list(tmp_path.glob("*.tmp")) == []


class TestConcurrentAccess:
    """Atomic replace means a reader sees the old record or the new one,
    never a prefix — hammered here with racing writer/reader threads."""

    def test_writers_and_readers_never_observe_partial_records(
        self, engine, tmp_path
    ):
        import threading

        engine.run(APP_A, name="app-a")
        record = engine.extract_per_script_records()["lib.jsl"]
        stop = threading.Event()
        observed_errors: list = []

        def writer():
            store = RecordStore(directory=tmp_path)
            while not stop.is_set():
                store.put("lib.jsl", LIB_SOURCE, record)

        def reader():
            while not stop.is_set():
                fresh = RecordStore(directory=tmp_path, quarantine=False)
                observed_errors.extend(fresh.load_errors)
                loaded = fresh.get("lib.jsl", LIB_SOURCE)
                if loaded is not None:
                    assert loaded.stats() == record.stats()

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        import time

        time.sleep(1.0)
        stop.set()
        for thread in threads:
            thread.join()
        assert observed_errors == []

    def test_cross_process_round_trip(self, engine, tmp_path):
        """A second *process* writing the same directory composes with an
        in-process reader (the multi-engine deployment shape)."""
        import subprocess
        import sys
        import textwrap

        engine.run(APP_A, name="app-a")
        record = engine.extract_per_script_records()["lib.jsl"]
        store = RecordStore(directory=tmp_path)
        store.put("lib.jsl", LIB_SOURCE, record)

        script = textwrap.dedent(
            """
            import sys
            from repro.ric import RecordStore
            store = RecordStore(directory=sys.argv[1])
            assert store.load_errors == [], store.load_errors
            assert len(store) == 1
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parent.parent),
        )
        assert result.returncode == 0, result.stderr

    def test_end_to_end_browser_cache_shape(self, tmp_path):
        """First process: visit app A, persist per-script records.  Second
        process: visit app B, pick up lib.jsl's record from disk."""
        first = Engine(seed=23)
        first.run(APP_A, name="app-a")
        store = RecordStore(directory=tmp_path)
        per_script = first.extract_per_script_records()
        for filename, source in APP_A:
            if filename in per_script:
                store.put(filename, source, per_script[filename])

        second = Engine(seed=99)
        fresh_store = RecordStore(directory=tmp_path)
        available = fresh_store.records_for(APP_B)
        assert len(available) == 1
        conventional = second.run(APP_B, name="app-b")
        ric = second.run(APP_B, name="app-b", icrecord=available)
        assert ric.console_output == conventional.console_output
        assert ric.counters.ic_misses < conventional.counters.ic_misses


class TestSweepQuarantine:
    """Quarantine keeps casualties for post-mortem; the sweep bounds them."""

    @staticmethod
    def _plant_corrupt(tmp_path, name: str, age_s: float) -> Path:
        import os
        import time

        path = tmp_path / name
        path.write_text("{ damaged")
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp))
        return path

    def test_memory_store_has_nothing_to_sweep(self):
        assert RecordStore().sweep_quarantine(max_age_s=0.0) == {
            "swept": 0,
            "kept": 0,
        }

    def test_all_none_sweeps_nothing(self, tmp_path):
        self._plant_corrupt(tmp_path, "a.icrecord.json.corrupt", age_s=3600)
        store = RecordStore(directory=tmp_path)
        assert store.sweep_quarantine() == {"swept": 0, "kept": 1}

    def test_sweep_by_age(self, tmp_path):
        old = self._plant_corrupt(
            tmp_path, "old.icrecord.json.corrupt", age_s=3600
        )
        young = self._plant_corrupt(
            tmp_path, "young.icrecord.json.corrupt", age_s=1
        )
        store = RecordStore(directory=tmp_path)
        assert store.sweep_quarantine(max_age_s=60.0) == {"swept": 1, "kept": 1}
        assert not old.exists() and young.exists()
        assert store.status()["quarantine_swept"] == 1
        assert store.status()["quarantined"] == 1

    def test_sweep_by_count_keeps_newest(self, tmp_path):
        paths = [
            self._plant_corrupt(
                tmp_path, f"c{i}.icrecord.json.corrupt", age_s=100 - i
            )
            for i in range(5)
        ]
        store = RecordStore(directory=tmp_path)
        assert store.sweep_quarantine(max_count=2) == {"swept": 3, "kept": 2}
        # c0..c2 were oldest and died; c3, c4 survive.
        assert [p.exists() for p in paths] == [False, False, False, True, True]

    def test_age_and_count_compose(self, tmp_path):
        for i in range(4):
            self._plant_corrupt(
                tmp_path, f"c{i}.icrecord.json.corrupt", age_s=3600 * (i + 1)
            )
        store = RecordStore(directory=tmp_path)
        # Age kills the two oldest; count then trims the survivors to one.
        summary = store.sweep_quarantine(max_age_s=3 * 3600 + 1, max_count=1)
        assert summary == {"swept": 3, "kept": 1}

    def test_cli_sweep_flag(self, tmp_path, capsys):
        from repro.harness.run_cli import main

        store_dir = tmp_path / "store"
        store_dir.mkdir()
        self._plant_corrupt(
            store_dir, "dead.icrecord.json.corrupt", age_s=3600
        )
        assert (
            main(
                [
                    "--store-dir",
                    str(store_dir),
                    "--sweep-quarantine",
                    "--quarantine-max-age",
                    "60",
                ]
            )
            == 0
        )
        assert "removed 1" in capsys.readouterr().err
        assert not (store_dir / "dead.icrecord.json.corrupt").exists()

    def test_cli_sweep_requires_a_directory(self, capsys):
        from repro.harness.run_cli import EXIT_USAGE, main

        assert main(["--sweep-quarantine"]) == EXIT_USAGE


class TestSweepQuarantineConcurrency:
    """The sweep races real writers: publishes keep landing while several
    sweepers prune — nothing raises, every corpse dies exactly once, and
    live records are never collateral damage."""

    def test_sweep_under_concurrent_writers(self, tmp_path):
        import os
        import threading
        import time

        engine = Engine(seed=7)
        engine.run(APP_A, name="seed")
        record = engine.extract_per_script_records()["lib.jsl"]

        corpses = 12
        for i in range(corpses):
            path = tmp_path / f"dead{i}.icrecord.json.corrupt"
            path.write_text("{ damaged")
            stamp = time.time() - 3600
            os.utime(path, (stamp, stamp))

        store = RecordStore(directory=tmp_path)
        errors: list = []
        swept_counts: list = []
        start = threading.Barrier(6)

        def writer(n: int) -> None:
            try:
                start.wait()
                for i in range(20):
                    store.put(f"w{n}-{i}.jsl", f"var x = {i};", record)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        def sweeper() -> None:
            try:
                start.wait()
                for _ in range(10):
                    summary = store.sweep_quarantine(max_age_s=60.0)
                    swept_counts.append(summary["swept"])
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(3)]
        threads += [threading.Thread(target=sweeper) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        # Every corpse died exactly once, whoever got there first.
        assert sum(swept_counts) == corpses
        assert not list(tmp_path.glob("*.corrupt"))
        # The concurrently-written records all survived, readable.
        fresh = RecordStore(directory=tmp_path)
        assert fresh.get("w0-0.jsl", "var x = 0;") is not None
        assert len(fresh.load_errors) == 0
