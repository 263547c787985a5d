"""Focused edge-case tests across sparse corners of the system."""

import pytest

from repro.core.config import RICConfig
from repro.core.engine import Engine
from repro.lang.errors import JSLSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind
from repro.runtime.values import number_to_string

from tests.helpers import console_of, eval_jsl, run_jsl


class TestLexerCorners:
    def test_number_then_member_access(self):
        # `1.` keeps the dot for member access when followed by an identifier.
        tokens = tokenize("1.x")
        assert [t.kind for t in tokens[:3]] == [
            TokenKind.NUMBER,
            TokenKind.DOT,
            TokenKind.IDENT,
        ]

    def test_lone_zero(self):
        assert tokenize("0")[0].value == 0.0

    def test_number_at_eof_with_exponent_marker_absent(self):
        assert tokenize("12")[0].value == 12.0

    def test_surrogate_pair_combines(self):
        token = tokenize('"\\ud800\\udc00"')[0]
        assert token.value == "\U00010000"

    def test_lone_high_surrogate_kept(self):
        token = tokenize('"\\ud800x"')[0]
        assert token.value == "\ud800x"

    def test_line_continuation_in_string(self):
        assert tokenize('"a\\\nb"')[0].value == "ab"


class TestNumberFormatting:
    def test_huge_integral_numbers_keep_repr(self):
        # Beyond 1e21 JS switches to exponent form; we use repr.
        assert "e" in number_to_string(1e22) or "." in number_to_string(1e22)

    def test_negative_zero(self):
        assert number_to_string(-0.0) == "0"

    def test_string_number_roundtrip_in_guest(self):
        assert console_of("console.log(0.1 + 0.2 === 0.3, 0.5 + 0.25);") == [
            "false 0.75"
        ]


class TestGuestSemanticsCorners:
    def test_empty_function_call_expression_statement(self):
        assert run_jsl("(function () {})();").console == []

    def test_object_with_numeric_literal_keys(self):
        assert console_of("var o = {1: 'one', 2: 'two'}; console.log(o[1], o['2']);") == [
            "one two"
        ]

    def test_chained_new(self):
        src = """
        function Wrapper(v) { this.v = v; }
        Wrapper.prototype.unwrap = function () { return this.v; };
        console.log(new Wrapper(new Wrapper(7).unwrap()).unwrap());
        """
        assert console_of(src) == ["7"]

    def test_array_of_functions_invoked_by_index(self):
        src = """
        var ops = [
          function (a, b) { return a + b; },
          function (a, b) { return a * b; }
        ];
        console.log(ops[0](2, 3), ops[1](2, 3));
        """
        assert console_of(src) == ["5 6"]

    def test_deeply_nested_object_literals(self):
        src = "var o = {a:{b:{c:{d:{e: 5}}}}}; console.log(o.a.b.c.d.e);"
        assert console_of(src) == ["5"]

    def test_for_in_mutation_during_iteration_is_safe(self):
        # The iterator snapshots keys; additions during iteration are not
        # visited (documented behaviour; JS leaves this implementation-defined).
        src = """
        var o = {a: 1, b: 2};
        var visited = [];
        for (var k in o) { visited.push(k); o["new_" + k] = 0; }
        console.log(visited.join(","));
        """
        assert console_of(src) == ["a,b"]

    def test_function_expression_name_visible_inside_only(self):
        src = """
        var f = function named() { return typeof named; };
        console.log(f(), typeof named);
        """
        out = console_of(src)
        # The inner binding of a named function expression is not implemented
        # as a self-reference in jsl; both resolve via normal scoping.
        assert out[0].endswith("undefined")

    def test_sparse_array_join_skips_holes(self):
        assert console_of("var a = []; a[2] = 'x'; console.log(a.join('-'));") == [
            "--x"
        ]

    def test_string_comparison_is_lexicographic(self):
        assert eval_jsl("'apple' < 'banana'") is True
        assert eval_jsl("'Z' < 'a'") is True  # uppercase sorts first

    def test_instanceof_after_prototype_swap(self):
        src = """
        function C() {}
        var before = new C();
        C.prototype = {};
        console.log(before instanceof C, new C() instanceof C);
        """
        assert console_of(src) == ["false true"]

    def test_megamorphic_store_site_remains_correct(self):
        src = """
        function setV(o, v) { o.v = v; }
        var shapes = [
          {}, {a: 0}, {b: 0}, {c: 0}, {d: 0}, {e: 0}
        ];
        for (var i = 0; i < shapes.length; i++) { setV(shapes[i], i); }
        var total = 0;
        for (var j = 0; j < shapes.length; j++) { total += shapes[j].v; }
        console.log(total);
        """
        assert console_of(src) == ["15"]

    def test_exception_in_native_callback_propagates(self):
        src = """
        var msg = "";
        try {
          [1, 2, 3].forEach(function (v) { if (v === 2) throw "stop@" + v; });
        } catch (e) { msg = e; }
        console.log(msg);
        """
        assert console_of(src) == ["stop@2"]


class TestNonFiniteKeys:
    """NaN and ±Infinity are property keys ("NaN", "Infinity"), never
    element indices; expected lines are node's output."""

    @pytest.mark.parametrize("fastpaths", [True, False])
    def test_non_finite_keys_are_property_names(self, fastpaths):
        source = """
        console.log("abc"[0/0], "abc"[1/0]);
        var a = [1, 2, 3];
        a[1/0] = 7;
        console.log(a.length, a[1/0], a[-1], a[1.5], a["1"]);
        """
        engine = Engine(config=RICConfig(interp_fastpaths=fastpaths))
        assert engine.run(source, name="keys").console_output == [
            "undefined undefined",
            "3 7 undefined undefined 2",
        ]


class TestEngineCorners:
    def test_empty_script(self, engine):
        profile = engine.run("", name="empty")
        assert profile.console_output == []
        assert profile.counters.ic_accesses == 0

    def test_comment_only_script(self, engine):
        profile = engine.run("// nothing here\n/* at all */", name="c")
        assert profile.console_output == []

    def test_record_of_empty_script_is_harmless(self, engine):
        engine.run("", name="empty")
        record = engine.extract_icrecord()
        profile = engine.run("var o = {a: 1}; console.log(o.a);", name="real", icrecord=record)
        assert profile.console_output == ["1"]

    def test_same_script_twice_in_one_workload(self, engine):
        scripts = [("a.jsl", "counterG = (typeof counterG === 'number' ? counterG : 0) + 1;")] * 2
        profile = engine.run(
            scripts + [("b.jsl", "console.log(counterG);")], name="twice"
        )
        assert profile.console_output == ["2"]

    def test_parse_error_position_reported(self, engine):
        with pytest.raises(JSLSyntaxError) as exc_info:
            engine.run([("bad.jsl", "var x = 1;\nvar = ;")], name="bad")
        assert exc_info.value.position.line == 2

    def test_unicode_identifiers_not_supported_but_strings_are(self, engine):
        profile = engine.run('console.log("héllo wörld \\u00e9");', name="u")
        assert profile.console_output == ["héllo wörld é"]


class TestHarnessReportingCorners:
    def test_render_table_handles_ints_floats_strings(self):
        from repro.harness.reporting import render_table

        text = render_table(
            "T",
            [("A", "a"), ("B", "b"), ("C", "c")],
            [{"a": 1, "b": 2.5, "c": "x"}],
        )
        assert "2.50" in text and "x" in text

    def test_render_bars_empty_rows(self):
        from repro.harness.reporting import render_bars

        text = render_bars("B", [], value_key="v")
        assert text.startswith("B")

    def test_memory_overhead_zero_heap(self):
        from repro.ric.icrecord import ICRecord
        from repro.stats.memory import MemoryOverhead

        overhead = MemoryOverhead(icrecord_bytes=10, heap_bytes=0)
        assert overhead.overhead_fraction == 0.0
        del ICRecord


class TestReceiverBinding:
    def test_keyed_method_call_binds_receiver(self):
        src = """
        var obj = {
          tag: "target",
          m: function () { return this.tag; }
        };
        var key = "m";
        console.log(obj[key]());
        """
        assert console_of(src) == ["target"]

    def test_chained_method_calls_rebind_each_step(self):
        src = """
        function Builder() { this.parts = []; }
        Builder.prototype.add = function (p) { this.parts.push(p); return this; };
        Builder.prototype.build = function () { return this.parts.join("-"); };
        console.log(new Builder().add("a").add("b").add("c").build());
        """
        assert console_of(src) == ["a-b-c"]

    def test_call_result_is_not_bound(self):
        src = """
        var holder = {
          name: "holder",
          getFn: function () { return function () { return typeof this; }; }
        };
        console.log(holder.getFn()());
        """
        assert console_of(src) == ["undefined"]

    def test_this_in_nested_function_is_undefined(self):
        src = """
        var o = {
          v: 1,
          outer: function () {
            var self = this;
            function inner() { return [typeof this, self.v]; }
            return inner();
          }
        };
        var r = o.outer();
        console.log(r[0], r[1]);
        """
        assert console_of(src) == ["undefined 1"]
