"""Property-based tests (hypothesis) on core invariants."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode.cache import decode_code, encode_code
from repro.bytecode.compiler import compile_source
from repro.core.engine import Engine
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind
from repro.runtime.heap import Heap
from repro.runtime.hidden_class import HiddenClassRegistry
from repro.runtime.values import (
    NULL,
    UNDEFINED,
    loose_equals,
    number_to_string,
    strict_equals,
    to_boolean,
    to_int32,
    to_number,
    to_string,
    to_uint32,
)

# -- strategies ---------------------------------------------------------------

identifiers = st.from_regex(r"[a-zA-Z_$][a-zA-Z0-9_$]{0,8}", fullmatch=True).filter(
    lambda s: s
    not in {
        "var", "let", "const", "function", "return", "if", "else", "while",
        "do", "for", "break", "continue", "new", "delete", "typeof", "in",
        "instanceof", "this", "null", "undefined", "true", "false", "throw",
        "try", "catch", "finally", "switch", "case", "default",
    }
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)

guest_primitives = st.one_of(
    st.just(UNDEFINED),
    st.just(NULL),
    st.booleans(),
    st.floats(width=32),
    st.text(max_size=20),
)


# -- lexer properties ----------------------------------------------------------


class TestLexerProperties:
    @given(st.floats(min_value=0, max_value=1e15, allow_nan=False))
    def test_number_literals_round_trip(self, value):
        text = repr(value)
        token = tokenize(text)[0]
        assert token.kind is TokenKind.NUMBER
        assert math.isclose(token.value, value, rel_tol=1e-12)

    @given(st.text(alphabet=st.characters(blacklist_characters='"\\\n'), max_size=30))
    def test_string_literals_round_trip(self, text):
        token = tokenize(json.dumps(text))[0]
        assert token.kind is TokenKind.STRING
        assert token.value == text

    @given(identifiers)
    def test_identifiers_round_trip(self, name):
        token = tokenize(name)[0]
        assert token.kind is TokenKind.IDENT
        assert token.value == name

    @given(st.lists(identifiers, min_size=1, max_size=10))
    def test_token_count_matches_words(self, names):
        tokens = tokenize(" ".join(names))
        assert len(tokens) == len(names) + 1  # + EOF


# -- value-model properties -------------------------------------------------------


class TestValueProperties:
    @given(guest_primitives)
    def test_strict_equals_is_reflexive_except_nan(self, value):
        if isinstance(value, float) and math.isnan(value):
            assert not strict_equals(value, value)
        else:
            assert strict_equals(value, value)

    @given(guest_primitives, guest_primitives)
    def test_strict_equals_symmetric(self, a, b):
        assert strict_equals(a, b) == strict_equals(b, a)

    @given(guest_primitives, guest_primitives)
    def test_loose_equals_symmetric(self, a, b):
        assert loose_equals(a, b) == loose_equals(b, a)

    @given(guest_primitives)
    def test_strict_implies_loose(self, value):
        if strict_equals(value, value):
            assert loose_equals(value, value)

    @given(finite_floats)
    def test_number_string_round_trip(self, value):
        assert to_number(number_to_string(value)) == value

    @given(st.floats())
    def test_to_int32_in_range(self, value):
        result = to_int32(value)
        assert -(2**31) <= result < 2**31

    @given(st.floats())
    def test_to_uint32_in_range(self, value):
        assert 0 <= to_uint32(value) < 2**32

    @given(finite_floats)
    def test_int32_uint32_congruent(self, value):
        assert to_int32(value) % (2**32) == to_uint32(value)

    @given(guest_primitives)
    def test_to_string_never_fails(self, value):
        assert isinstance(to_string(value), str)

    @given(guest_primitives)
    def test_to_boolean_total(self, value):
        assert to_boolean(value) in (True, False)


# -- hidden-class properties ---------------------------------------------------------


class TestHiddenClassProperties:
    @given(st.lists(identifiers, min_size=1, max_size=12, unique=True))
    @settings(max_examples=40)
    def test_layout_offsets_are_dense_and_ordered(self, names):
        registry = HiddenClassRegistry(Heap(seed=0))
        hc = registry.create_root("builtin", "b", None)
        for name in names:
            hc, _ = registry.transition(hc, name, "s")
        assert list(hc.layout.keys()) == names
        assert list(hc.layout.values()) == list(range(len(names)))

    @given(st.lists(identifiers, min_size=1, max_size=10, unique=True))
    @settings(max_examples=40)
    def test_same_insertion_order_shares_classes(self, names):
        registry = HiddenClassRegistry(Heap(seed=0))
        root = registry.create_root("builtin", "b", None)
        hc_a = root
        for name in names:
            hc_a, _ = registry.transition(hc_a, name, "s")
        count_after_first = registry.count()
        hc_b = root
        for name in names:
            hc_b, _ = registry.transition(hc_b, name, "s")
        assert hc_a is hc_b
        assert registry.count() == count_after_first

    @given(
        st.lists(identifiers, min_size=2, max_size=6, unique=True),
        st.randoms(),
    )
    @settings(max_examples=40)
    def test_different_insertion_orders_diverge(self, names, rng):
        shuffled = list(names)
        rng.shuffle(shuffled)
        if shuffled == names:
            return
        registry = HiddenClassRegistry(Heap(seed=0))
        root = registry.create_root("builtin", "b", None)
        hc_a = root
        for name in names:
            hc_a, _ = registry.transition(hc_a, name, "s")
        hc_b = root
        for name in shuffled:
            hc_b, _ = registry.transition(hc_b, name, "s")
        assert hc_a is not hc_b
        assert set(hc_a.layout) == set(hc_b.layout)


# -- end-to-end properties ----------------------------------------------------------


def _object_literal(keys, values):
    parts = ", ".join(f"{k}: {v}" for k, v in zip(keys, values))
    return "{" + parts + "}"


class TestEndToEndProperties:
    @given(
        st.lists(identifiers, min_size=1, max_size=6, unique=True),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_object_round_trip_via_json(self, keys, data):
        values = [
            data.draw(st.integers(min_value=-1000, max_value=1000))
            for _ in keys
        ]
        literal = _object_literal(keys, values)
        engine = Engine(seed=1)
        profile = engine.run(
            f"var o = {literal}; console.log(JSON.stringify(o));", name="p"
        )
        expected = "{" + ",".join(f'"{k}":{v}' for k, v in zip(keys, values)) + "}"
        assert profile.console_output == [expected]

    @given(st.lists(st.integers(min_value=-99, max_value=99), min_size=0, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_array_sum_matches_python(self, numbers):
        literal = "[" + ",".join(str(n) for n in numbers) + "]"
        engine = Engine(seed=1)
        profile = engine.run(
            f"""
            var a = {literal};
            var total = 0;
            for (var i = 0; i < a.length; i++) {{ total += a[i]; }}
            console.log(total);
            """,
            name="p",
        )
        assert profile.console_output == [number_to_string(float(sum(numbers)))]

    @given(st.lists(identifiers, min_size=1, max_size=5, unique=True))
    @settings(max_examples=20, deadline=None)
    def test_ric_preserves_output_for_generated_programs(self, keys):
        """The soundness property: for an arbitrary generated program, the
        RIC Reuse run must print exactly what the Initial run printed."""
        assignments = "\n".join(f"o.{k} = {i};" for i, k in enumerate(keys))
        reads = " + ".join(f"o.{k}" for k in keys)
        source = f"""
        function build() {{ var o = {{}}; {assignments} return o; }}
        var o = build();
        var p = build();
        console.log({reads}, JSON.stringify(p));
        """
        engine = Engine(seed=2)
        initial = engine.run(source, name="p")
        record = engine.extract_icrecord()
        ric = engine.run(source, name="p", icrecord=record)
        assert initial.console_output == ric.console_output
        assert ric.counters.ic_misses <= initial.counters.ic_misses

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_fibonacci_matches_python(self, n):
        def fib(k):
            a, b = 0, 1
            for _ in range(k):
                a, b = b, a + b
            return a

        engine = Engine(seed=1)
        profile = engine.run(
            f"""
            var memo = {{}};
            function fib(n) {{
              if (n < 2) return n;
              if (memo[n] !== undefined) return memo[n];
              var r = fib(n - 1) + fib(n - 2);
              memo[n] = r;
              return r;
            }}
            console.log(fib({n}));
            """,
            name="p",
        )
        assert profile.console_output == [str(fib(n))]


class TestRecordSerializationProperties:
    @given(st.lists(identifiers, min_size=1, max_size=5, unique=True))
    @settings(max_examples=15, deadline=None)
    def test_icrecord_json_round_trip(self, keys):
        from repro.ric.serialize import record_from_json, record_to_json

        assignments = "\n".join(f"o.{k} = {i};" for i, k in enumerate(keys))
        engine = Engine(seed=3)
        engine.run(f"var o = {{}};\n{assignments}", name="p")
        record = engine.extract_icrecord()
        round_tripped = record_from_json(
            json.loads(json.dumps(record_to_json(record)))
        )
        assert record_to_json(round_tripped) == record_to_json(record)

    @given(st.lists(identifiers, min_size=1, max_size=5, unique=True))
    @settings(max_examples=15, deadline=None)
    def test_compiled_code_codec_round_trip(self, keys):
        source = "\n".join(f"var {k} = function () {{ return {i}; }};" for i, k in enumerate(keys))
        code = compile_source(source, "p.jsl")
        restored = decode_code(encode_code("p.jsl:k", code), "p.jsl:k")
        assert restored == code
        assert len(list(restored.iter_code_objects())) == len(
            list(code.iter_code_objects())
        )
