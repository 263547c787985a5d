"""Unit tests for the jsl lexer."""

import pytest

from repro.lang.errors import JSLSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [token.kind for token in tokenize(source)][:-1]  # drop EOF


def values(source):
    return [token.value for token in tokenize(source)][:-1]


class TestNumbers:
    def test_integer(self):
        tokens = tokenize("42")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].value == 42.0

    def test_decimal(self):
        assert tokenize("3.25")[0].value == 3.25

    def test_leading_dot(self):
        assert tokenize(".5")[0].value == 0.5

    def test_trailing_dot(self):
        assert tokenize("7.")[0].value == 7.0

    def test_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0

    def test_negative_exponent(self):
        assert tokenize("25e-2")[0].value == 0.25

    def test_signed_exponent(self):
        assert tokenize("2E+2")[0].value == 200.0

    def test_hex(self):
        assert tokenize("0xFF")[0].value == 255.0

    def test_hex_lowercase(self):
        assert tokenize("0xdeadBEEF")[0].value == float(0xDEADBEEF)

    def test_malformed_hex_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize("0x")

    def test_malformed_exponent_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize("1e+")

    @pytest.mark.parametrize(
        "source,column",
        [("²", 1), ("x = .²;", 5), ("var x = 1e²;", 9), ("a + 1.²", 5)],
    )
    def test_non_decimal_digit_is_a_syntax_error_at_token_start(self, source, column):
        # "²".isdigit() is true but float() rejects it.
        with pytest.raises(JSLSyntaxError, match="malformed number literal") as info:
            tokenize(source)
        assert (info.value.position.line, info.value.position.column) == (1, column)


class TestStrings:
    def test_double_quoted(self):
        assert tokenize('"hello"')[0].value == "hello"

    def test_single_quoted(self):
        assert tokenize("'world'")[0].value == "world"

    def test_escapes(self):
        assert tokenize(r'"a\nb\tc"')[0].value == "a\nb\tc"

    def test_quote_escape(self):
        assert tokenize(r'"say \"hi\""')[0].value == 'say "hi"'

    def test_unicode_escape(self):
        assert tokenize(r'"A"')[0].value == "A"

    def test_hex_escape(self):
        assert tokenize(r'"\x41"')[0].value == "A"

    def test_unknown_escape_passthrough(self):
        assert tokenize(r'"\q"')[0].value == "q"

    def test_unterminated_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize('"oops')

    def test_newline_in_string_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize('"a\nb"')

    def test_bad_unicode_escape_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize(r'"\u00g1"')


class TestIdentifiersAndKeywords:
    def test_identifier(self):
        token = tokenize("fooBar_3$")[0]
        assert token.kind is TokenKind.IDENT
        assert token.value == "fooBar_3$"

    def test_dollar_identifier(self):
        assert tokenize("$")[0].kind is TokenKind.IDENT

    @pytest.mark.parametrize(
        "word,kind",
        [
            ("var", TokenKind.VAR),
            ("function", TokenKind.FUNCTION),
            ("return", TokenKind.RETURN),
            ("new", TokenKind.NEW),
            ("typeof", TokenKind.TYPEOF),
            ("instanceof", TokenKind.INSTANCEOF),
            ("null", TokenKind.NULL),
            ("undefined", TokenKind.UNDEFINED),
            ("true", TokenKind.TRUE),
            ("false", TokenKind.FALSE),
            ("switch", TokenKind.SWITCH),
            ("finally", TokenKind.FINALLY),
        ],
    )
    def test_keywords(self, word, kind):
        assert tokenize(word)[0].kind is kind

    def test_keyword_prefix_is_identifier(self):
        assert tokenize("variable")[0].kind is TokenKind.IDENT


class TestOperators:
    def test_maximal_munch_shift(self):
        assert kinds("a >>> b") == [TokenKind.IDENT, TokenKind.USHR, TokenKind.IDENT]

    def test_strict_equality(self):
        assert kinds("a === b")[1] is TokenKind.STRICT_EQ

    def test_strict_inequality(self):
        assert kinds("a !== b")[1] is TokenKind.STRICT_NEQ

    def test_increment_vs_plus(self):
        assert kinds("a ++ + b") == [
            TokenKind.IDENT,
            TokenKind.PLUS_PLUS,
            TokenKind.PLUS,
            TokenKind.IDENT,
        ]

    def test_compound_assignment(self):
        assert kinds("a += 1")[1] is TokenKind.PLUS_ASSIGN

    def test_logical_operators(self):
        assert kinds("a && b || !c") == [
            TokenKind.IDENT,
            TokenKind.AND,
            TokenKind.IDENT,
            TokenKind.OR,
            TokenKind.NOT,
            TokenKind.IDENT,
        ]

    def test_unexpected_character_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize("a # b")


class TestTriviaAndPositions:
    def test_line_comment(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize("a /* never closed")

    def test_positions_after_multiline_comment_and_continuation(self):
        tokens = tokenize('/* a\n b */ x "p\\\nq" y')
        assert [(t.position.line, t.position.column) for t in tokens[:3]] == [
            (2, 7),
            (2, 9),
            (3, 4),
        ]
        assert tokens[1].value == "pq"

    def test_positions_track_lines_and_columns(self):
        tokens = tokenize("a\n  bb\n    c")
        assert (tokens[0].position.line, tokens[0].position.column) == (1, 1)
        assert (tokens[1].position.line, tokens[1].position.column) == (2, 3)
        assert (tokens[2].position.line, tokens[2].position.column) == (3, 5)

    def test_position_filename(self):
        token = tokenize("x", filename="lib.jsl")[0]
        assert token.position.filename == "lib.jsl"
        assert str(token.position) == "lib.jsl:1:1"

    def test_empty_input_is_just_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_eof_is_idempotent(self):
        tokens = tokenize("  \n\t ")
        assert tokens[-1].kind is TokenKind.EOF
