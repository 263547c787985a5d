"""Differential test: the regex lexer against the reference scanner.

``tests/reference_lexer.py`` is the original char-at-a-time scanner.  For
every input both must give the same ``(kind, value, position)`` stream, or
raise the same error type with the same message.  The one allowed
divergence: a number made of ``str.isdigit`` characters that ``float``
rejects (``"²"``) escaped from the reference as a bare ``ValueError``; the
regex lexer raises ``JSLSyntaxError("malformed number literal")`` at the
token start instead.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lang.errors import JSLSyntaxError
from repro.lang.lexer import tokenize
from repro.workloads import WORKLOADS, polyshapes, typedarith
from repro.workloads.synthetic import generated_scripts
from tests import reference_lexer
from tests.test_fuzz_programs import (
    polymorphic_shape_program,
    property_heavy_program,
    type_stable_program,
    type_unstable_program,
)

ROOT = Path(__file__).resolve().parent.parent


def _position(position) -> tuple:
    return (position.filename, position.line, position.column)


def new_stream(source: str) -> list:
    try:
        tokens = tokenize(source, "t.jsl")
    except JSLSyntaxError as exc:
        return [("JSLSyntaxError", str(exc))]
    return [(t.kind, t.value, _position(t.position)) for t in tokens]


def reference_stream(source: str) -> list:
    """The reference's stream, with a ``ValueError`` mapped to the fix."""
    lexer = reference_lexer.Lexer(source, "t.jsl")
    stream = []
    while True:
        try:
            lexer._skip_trivia()
            start = lexer._position()
            token = lexer._next_token()
        except JSLSyntaxError as exc:
            return [("JSLSyntaxError", str(exc))]
        except ValueError:
            return [("JSLSyntaxError", f"{start}: malformed number literal")]
        stream.append((token.kind, token.value, _position(token.position)))
        if token.kind.name == "EOF":
            return stream


def assert_same_stream(source: str) -> None:
    expected = reference_stream(source)
    got = new_stream(source)
    if expected[-1][0] == "JSLSyntaxError":
        # The reference stops at its first error; so must the new lexer.
        assert got == expected[-1:], source
    else:
        assert got == expected, source


def _corpus() -> list[tuple[str, str]]:
    sources = [(name, w.source) for name, w in WORKLOADS.items()]
    sources += [(m.NAME, m.SOURCE) for m in (typedarith, polyshapes)]
    for pattern in ("examples/jsl/*.jsl", "tests/jsl_suite/*.jsl"):
        sources += [(p.name, p.read_text()) for p in sorted(ROOT.glob(pattern))]
    sources += generated_scripts()
    sources += generated_scripts(shapes=20, fields_per_shape=6, instances=5)
    for seed in range(4):
        rng = random.Random(seed)
        sources += [
            (f"property_heavy_{seed}", property_heavy_program(rng)),
            (f"polymorphic_{seed}", polymorphic_shape_program(rng, [1, 2, 4, 5])),
            (f"type_stable_{seed}", type_stable_program(rng)),
            (f"type_unstable_{seed}", type_unstable_program(rng)),
        ]
    return sources


_CORPUS = _corpus()


@pytest.mark.parametrize("name,source", _CORPUS, ids=[name for name, _ in _CORPUS])
def test_corpus_streams_match(name, source):
    assert_same_stream(source)


ERROR_CASES = [
    "a # b",
    "0x",
    "0xg",
    "1e",
    "1e+",
    "1else",
    ".5e-",
    "a /* never closed",
    "/*/",
    '"oops',
    "'a\nb'",
    '"tail\\',
    '"\\u00g1"',
    '"\\u12"',
    '"\\uD800\\uZZZZ"',
    '"\\x4"',
    '"\\x4g"',
    "\f",
    " ",
    "½",
    "a @ b",
    # isdigit() but not decimal: a ValueError in the reference.
    "²",
    "x = .²;",
    "var x = 1e²;",
    "1.²",
    "y\n  12²",
]

TRICKY_CASES = [
    "1.x",
    "1.e5",
    "1..2",
    "1.",
    "1.é",
    "1.½",
    "1٣ + ٣.٣e٣",
    ".٣",
    "0xFFg 0x1.5",
    "é1 a½ ab² _$x",
    "x.é",
    "a/*b*/c//d\ne",
    "a /* x\n\n y */ b\n  c",
    "a\r\nb\tc",
    "'it''s' \"a'b\" 'a\"b'",
    '"\\ud800\\udc00" "\\ud800x" "\\ud800\\u0041" "\\x41\\u0041"',
    '"a\\\nb" c',
    '"\\q\\0\\b\\f\\v\\r\\t\\n\\\\\\\'"',
    ">>>= >>> >> >= === !== == != && || ++ -- += -= *= /= %= / *",
    "a.b.c[0](1)?2:3;{}",
]


@pytest.mark.parametrize("source", ERROR_CASES + TRICKY_CASES)
def test_edge_streams_match(source):
    assert_same_stream(source)


_ALPHABET = [
    " ", "\n", "\r", "\t", "a", "Z", "_", "$", "x", "e", "E", "0", "1", "9",
    ".", "+", "-", "*", "/", "%", "=", "!", "<", ">", "&", "|", "^", "~",
    "?", ":", ";", ",", "(", ")", "{", "}", "[", "]", '"', "'", "\\",
    "\\u0041", "\\uD800\\uDC00", "\\x4", "\\x41", "\\\n", "/*", "*/", "//",
    "0x", "1e", "é", "²", "½", "٣", "var", "in", "#",
]


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=40).map("".join))
def test_mixed_alphabet_streams_match(source):
    assert_same_stream(source)
