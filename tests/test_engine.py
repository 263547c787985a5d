"""Tests for the Engine orchestration layer, RunProfile and Counters."""

import math

import pytest

from repro.core.engine import Engine, WorkloadMeasurement
from repro.interpreter.cost_model import CPI, modeled_time_ms
from repro.lang.errors import JSLRuntimeError, JSLSyntaxError
from repro.stats.counters import (
    CATEGORY_EXECUTE,
    CATEGORY_IC_MISS,
    MISS_GLOBAL,
    MISS_HANDLER,
    MISS_OTHER,
    Counters,
)

SOURCE = """
function T(v) { this.v = v; }
var items = [new T(1), new T(2), new T(3)];
var total = 0;
for (var i = 0; i < items.length; i++) { total += items[i].v; }
console.log("total", total);
"""


class TestEngineRuns:
    def test_run_returns_profile(self, engine):
        profile = engine.run(SOURCE, name="t")
        assert profile.name == "t"
        assert profile.mode == "initial"
        assert profile.console_output == ["total 6"]
        assert profile.total_instructions > 0
        assert profile.heap_bytes > 0

    def test_run_modes(self, engine):
        engine.run(SOURCE, name="t")
        record = engine.extract_icrecord()
        ric = engine.run(SOURCE, name="t", icrecord=record)
        assert ric.mode == "reuse-ric"

    def test_each_run_gets_fresh_runtime(self, engine):
        first = engine.run("var counter = 1; console.log(counter);", name="t")
        second = engine.run("console.log(typeof counter);", name="t")
        assert first.console_output == ["1"]
        assert second.console_output == ["undefined"]

    def test_explicit_seed_reproduces_addresses(self, engine):
        engine.run(SOURCE, name="t", seed=77)
        first = [hc.address for hc in engine.last_run.runtime.hidden_classes.all_classes]
        engine.run(SOURCE, name="t", seed=77)
        second = [hc.address for hc in engine.last_run.runtime.hidden_classes.all_classes]
        assert first == second

    def test_default_runs_differ_in_addresses(self, engine):
        engine.run(SOURCE, name="t")
        first = engine.last_run.runtime.heap._next_address
        engine.run(SOURCE, name="t")
        second = engine.last_run.runtime.heap._next_address
        assert first != second

    def test_syntax_error_propagates(self, engine):
        with pytest.raises(JSLSyntaxError):
            engine.run("var = ;", name="bad")

    def test_last_run_handle_exposes_session_state(self, engine):
        assert engine.last_run is None
        engine.run(SOURCE, name="t")
        session = engine.last_run
        assert session is not None
        assert session.runtime is not None
        assert session.feedback is not None
        assert session.profile is not None and session.profile.name == "t"

    def test_uncaught_guest_error_becomes_runtime_error(self, engine):
        with pytest.raises(JSLRuntimeError, match="uncaught"):
            engine.run("throw new Error('kaput');", name="bad")

    def test_measure_workload_protocol(self, engine):
        measurement = engine.measure_workload(SOURCE, name="t")
        assert isinstance(measurement, WorkloadMeasurement)
        assert measurement.initial.mode == "initial"
        assert measurement.conventional.mode == "reuse-conventional"
        assert measurement.ric.mode == "reuse-ric"
        # On a tiny program RIC's bookkeeping can slightly outweigh its
        # savings — the paper's gains come from library-scale workloads.
        assert 0.0 <= measurement.normalized_instructions <= 1.05
        assert measurement.miss_rate_reduction_pp >= 0.0

    def test_multi_script_workloads_execute_in_order(self, engine):
        scripts = [
            ("a.jsl", "var shared = 'from-a'; console.log('a');"),
            ("b.jsl", "console.log('b sees', shared);"),
        ]
        profile = engine.run(scripts, name="pair")
        assert profile.console_output == ["a", "b sees from-a"]

    def test_profile_summary_keys(self, engine):
        summary = engine.run(SOURCE, name="t").summary()
        assert summary["name"] == "t"
        for key in (
            "total_instructions",
            "ic_miss_rate_pct",
            "miss_breakdown_pct",
            "hidden_classes_created",
            "heap_bytes",
        ):
            assert key in summary


class TestCounters:
    def test_empty_counters(self):
        counters = Counters()
        assert counters.total_instructions == 0
        assert counters.ic_miss_rate == 0.0
        assert counters.ic_miss_handling_fraction == 0.0
        assert counters.context_independent_handler_fraction == 0.0
        assert counters.miss_rate_contribution(MISS_OTHER) == 0.0

    def test_charge_and_fractions(self):
        counters = Counters()
        counters.charge(CATEGORY_EXECUTE, 60)
        counters.charge(CATEGORY_IC_MISS, 40)
        assert counters.total_instructions == 100
        assert counters.ic_miss_handling_fraction == 0.4

    def test_record_miss_buckets(self):
        counters = Counters()
        counters.ic_accesses = 10
        counters.record_miss(MISS_HANDLER)
        counters.record_miss(MISS_GLOBAL)
        counters.record_miss(MISS_OTHER)
        counters.record_miss(MISS_OTHER)
        assert counters.ic_misses == 4
        assert counters.ic_miss_rate == 0.4
        assert counters.miss_rate_contribution(MISS_OTHER) == 0.2
        total = sum(
            counters.miss_rate_contribution(reason)
            for reason in (MISS_HANDLER, MISS_GLOBAL, MISS_OTHER)
        )
        assert math.isclose(total, counters.ic_miss_rate)

    def test_as_dict_round_trip(self):
        counters = Counters()
        counters.charge(CATEGORY_EXECUTE, 5)
        data = counters.as_dict()
        assert data["total_instructions"] == 5
        assert data["instructions"][CATEGORY_EXECUTE] == 5


class TestModeledTime:
    def test_weights_applied(self):
        time_a = modeled_time_ms({"execute": 1000, "ic_miss": 0})
        time_b = modeled_time_ms({"execute": 0, "ic_miss": 1000})
        assert time_b > time_a  # miss handling carries a CPI premium
        assert math.isclose(time_b / time_a, CPI["ic_miss"] / CPI["execute"])

    def test_profile_exposes_modeled_time(self, engine):
        profile = engine.run(SOURCE, name="t")
        assert profile.modeled_time_ms > 0
        # Modeled time is a pure function of the counters.
        assert math.isclose(
            profile.modeled_time_ms, modeled_time_ms(profile.counters.instructions)
        )


class TestRunCli:
    def test_run_files(self, tmp_path, capsys):
        from repro.harness.run_cli import main

        script = tmp_path / "s.jsl"
        script.write_text("console.log('cli works');")
        assert main([str(script)]) == 0
        assert "cli works" in capsys.readouterr().out

    def test_stats_flag(self, tmp_path, capsys):
        from repro.harness.run_cli import main

        script = tmp_path / "s.jsl"
        script.write_text("var o = {a: 1}; console.log(o.a);")
        assert main(["--stats", str(script)]) == 0
        captured = capsys.readouterr()
        assert "IC accesses" in captured.err

    def test_record_round_trip(self, tmp_path, capsys):
        from repro.harness.run_cli import main

        script = tmp_path / "s.jsl"
        script.write_text(
            "function C() { this.v = 1; } var a = new C(); var b = new C();"
            "function r(o) { return o.v; } r(a); r(b); console.log('ok');"
        )
        record = tmp_path / "s.ric"
        assert main(["--stats", "--record", str(record), str(script)]) == 0
        capsys.readouterr()
        assert record.exists()
        assert main(["--stats", "--record", str(record), str(script)]) == 0
        captured = capsys.readouterr()
        assert "preloads" in captured.err
        # The second run must have preloaded something.
        assert "0 preloads" not in captured.err

    def test_disassemble(self, tmp_path, capsys):
        from repro.harness.run_cli import main

        script = tmp_path / "s.jsl"
        script.write_text("var x = 1;")
        assert main(["--disassemble", str(script)]) == 0
        assert "LOAD_CONST" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        from repro.harness.run_cli import main

        assert main(["/nonexistent/nope.jsl"]) == 2

    def test_guest_error_exit_code(self, tmp_path, capsys):
        from repro.harness.run_cli import EXIT_RUNTIME, main

        script = tmp_path / "s.jsl"
        script.write_text("throw 'bad';")
        assert main([str(script)]) == EXIT_RUNTIME

    def test_parse_error_exit_code(self, tmp_path, capsys):
        from repro.harness.run_cli import EXIT_PARSE, main

        script = tmp_path / "s.jsl"
        script.write_text("var = ;")
        assert main([str(script)]) == EXIT_PARSE

    def test_trace_flag(self, tmp_path, capsys):
        from repro.harness.run_cli import main

        script = tmp_path / "s.jsl"
        script.write_text("var o = {a: 1}; console.log(o.a);")
        assert main(["--trace", str(script)]) == 0
        assert "ic_miss" in capsys.readouterr().err
