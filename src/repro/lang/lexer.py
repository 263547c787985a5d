"""Regex scanner for jsl source code.

One compiled master pattern matches the next token, together with the
whitespace and comments before it, at the current offset.  Line and column
come from a table of line-start offsets (``bisect``), so the scan never
tracks them per character, and every :class:`~repro.lang.tokens.Token` still
gets a stable :class:`~repro.lang.errors.SourcePosition`.

The master pattern is ASCII-only.  Where it cannot decide a token on its own
(an escape in a string, a non-ASCII character next to a number or name, any
error) it matches its empty ``slow`` alternative, and :func:`_scan_slow`
scans that one token by the ``str.isdigit``/``isalpha``/``isalnum`` rules.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Callable

from repro.lang.errors import JSLSyntaxError, SourcePosition
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "\n": "",  # line continuation
}

#: Operator and punctuation spellings, longest first so maximal munch works.
_OPERATORS = {kind.value: kind for kind in TokenKind if not kind.value.isalpha()}
_SPELLINGS = sorted(_OPERATORS, key=len, reverse=True)
_WORD_KINDS = {**_OPERATORS, **KEYWORDS}  # anything else a word matches is IDENT
# A "/" before "*" opens an unterminated comment; a "." before a digit or a
# non-ASCII character may start a number.  Both go to the slow scanner.
_OPERATOR_GUARDS = {"/": r"(?!\*)", ".": r"(?![0-9]|[^\x00-\x7f])"}

# The pattern never backtracks into a shorter token: a name must end before
# any name character, the number is an atomic group (a lookahead capture plus
# backreference, the spelling every supported Python accepts), and the empty
# last alternative ("slow") matches whenever nothing else does, so the engine
# never backtracks into the trivia either (where it could find a name inside
# a comment).
_MASTER = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)*(?:"
    + "|".join(
        [
            r"(?P<word>[A-Za-z_$][A-Za-z0-9_$]*(?![\w$]|[^\x00-\x7f])|"
            + "|".join(re.escape(s) + _OPERATOR_GUARDS.get(s, "") for s in _SPELLINGS)
            + ")",
            r"""(?P<string>"[^"\\\n]*"|'[^'\\\n]*')""",
            r"(?P<hex>0[xX][0-9a-fA-F]*)",  # before number, which would take the "0"
            r"(?=(?P<number>(?:[0-9]+(?:\.(?:[0-9]+|(?![A-Za-z_$]|[^\x00-\x7f])))?"
            r"|\.[0-9]+)(?:[eE][+-]?[0-9]+)?))(?P=number)"
            r"(?![eE]|[^\x00-\x7f]|\.[^\x00-\x7f])",
            r"\Z",
            "(?P<slow>)",
        ]
    )
    + ")"
)
_WORD, _STRING, _HEX, _NUMBER, _SLOW = (
    _MASTER.groupindex[name] for name in ("word", "string", "hex", "number", "slow")
)

_NAME_REST = re.compile(r"[\w$]*")  # \w is exactly str.isalnum() plus "_"
_STRING_RUN = {q: re.compile(rf"[^{q}\\\n]*") for q in "'\""}
_HEX2 = re.compile("[0-9a-fA-F]{2}")
_HEX4 = re.compile("[0-9a-fA-F]{4}")


def tokenize(source: str, filename: str = "<script>") -> list[Token]:
    """Scan ``source`` and return its tokens, ending with EOF."""
    line_starts = [0]
    line_starts += [m.end() for m in re.finditer("\n", source)]

    def at(offset: int) -> SourcePosition:
        line = bisect_right(line_starts, offset)
        return SourcePosition(filename, line, offset - line_starts[line - 1] + 1)

    match = _MASTER.match
    new_token = tuple.__new__  # Token(...) without the Python-level __new__
    tokens: list[Token] = []
    pos = 0
    while True:
        m = match(source, pos)
        group = m.lastindex
        if group is None:  # only trivia left
            tokens.append(Token(TokenKind.EOF, None, at(m.end())))
            return tokens
        start, pos = m.span(group)
        value = m[group]
        if group == _WORD:
            kind = _WORD_KINDS.get(value, TokenKind.IDENT)
        elif group == _NUMBER:
            kind, value = TokenKind.NUMBER, float(value)
        elif group == _STRING:
            kind, value = TokenKind.STRING, value[1:-1]
        elif group == _SLOW:
            kind, value, pos = _scan_slow(source, start, at)
        elif len(value) == 2:
            raise JSLSyntaxError("malformed hex literal", at(start))
        else:
            kind, value = TokenKind.NUMBER, float(int(value, 16))
        line = bisect_right(line_starts, start)  # at(start), inlined
        column = start - line_starts[line - 1] + 1
        tokens.append(
            new_token(Token, (kind, value, SourcePosition(filename, line, column)))
        )


def _scan_slow(
    source: str, pos: int, at: Callable[[int], SourcePosition]
) -> tuple[TokenKind, object, int]:
    """Scan the token at ``pos`` that the master pattern could not decide.

    Returns ``(kind, value, end)`` or raises the token's
    :class:`JSLSyntaxError`.
    """
    char = source[pos]
    if source.startswith("/*", pos):
        raise JSLSyntaxError("unterminated block comment", at(pos))
    if char.isdigit() or (char == "." and source[pos + 1 : pos + 2].isdigit()):
        # Never hex: the master pattern takes every "0x" itself.
        end = _digits_end(source, pos)
        if source[end : end + 1] == ".":
            after = source[end + 1 : end + 2]
            if after.isdigit():
                end = _digits_end(source, end + 1)
            elif not (after and (after.isalpha() or after in "_$")):
                end += 1  # `1.` is a number; `1.x` leaves the dot to member access
        if source[end : end + 1] in ("e", "E"):
            end += 1 + (source[end + 1 : end + 2] in ("+", "-"))
            if not source[end : end + 1].isdigit():
                raise JSLSyntaxError("malformed exponent", at(pos))
            end = _digits_end(source, end)
        try:
            return TokenKind.NUMBER, float(source[pos:end]), end
        except ValueError:  # isdigit() but not a decimal digit, such as "²"
            raise JSLSyntaxError("malformed number literal", at(pos)) from None
    if char.isalpha() or char in "_$":
        end = _NAME_REST.match(source, pos + 1).end()
        name = source[pos:end]
        return KEYWORDS.get(name, TokenKind.IDENT), name, end
    if char in "'\"":
        value, end = _scan_string(source, pos, at)
        return TokenKind.STRING, value, end
    for spelling in _SPELLINGS:
        if source.startswith(spelling, pos):
            return _OPERATORS[spelling], spelling, pos + len(spelling)
    raise JSLSyntaxError(f"unexpected character {char!r}", at(pos))


def _digits_end(source: str, pos: int) -> int:
    while source[pos : pos + 1].isdigit():
        pos += 1
    return pos


def _scan_string(
    source: str, start: int, at: Callable[[int], SourcePosition]
) -> tuple[str, int]:
    """Decode the quoted string at ``start``; return its value and end offset."""
    quote = source[start]
    run = _STRING_RUN[quote].match

    def hex_escape(pattern: re.Pattern, pos: int, what: str) -> int:
        digits = pattern.match(source, pos)
        if digits is None:
            raise JSLSyntaxError(f"malformed {what} escape", at(start))
        return int(digits[0], 16)

    parts: list[str] = []
    pos = start + 1
    while True:
        end = run(source, pos).end()
        parts.append(source[pos:end])
        char = source[end : end + 1]
        if char == quote:
            return "".join(parts), end + 1
        if char != "\\":
            raise JSLSyntaxError("unterminated string literal", at(start))
        escape = source[end + 1 : end + 2]
        pos = end + 2
        if escape == "u":
            code_unit = hex_escape(_HEX4, pos, "unicode")
            pos += 4
            # Combine a UTF-16 surrogate pair into the astral code point, as
            # JS strings do; a high surrogate alone stays a lone code unit.
            if 0xD800 <= code_unit <= 0xDBFF and source.startswith("\\u", pos):
                low = hex_escape(_HEX4, pos + 2, "unicode")
                if 0xDC00 <= low <= 0xDFFF:
                    code_unit = 0x10000 + ((code_unit - 0xD800) << 10) + (low - 0xDC00)
                    pos += 6
            parts.append(chr(code_unit))
        elif escape == "x":
            parts.append(chr(hex_escape(_HEX2, pos, "hex")))
            pos += 2
        else:
            parts.append(_ESCAPES.get(escape, escape))
