"""Reference jsl lexer for differential tests (test-only, never imported by src).

This is the original char-at-a-time scanner, kept verbatim below so the
regex lexer in ``repro.lang.lexer`` can be checked token for token
against it.
"""

from __future__ import annotations

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
    "\\": "\\",
    "'": "'",
    '"': '"',
    "`": "`",
    "\n": "",  # line continuation
}

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    (">>>", TokenKind.USHR),
    ("===", TokenKind.STRICT_EQ),
    ("!==", TokenKind.STRICT_NEQ),
    ("<<", TokenKind.SHL),
    (">>", TokenKind.SHR),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NEQ),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("&&", TokenKind.AND),
    ("||", TokenKind.OR),
    ("++", TokenKind.PLUS_PLUS),
    ("--", TokenKind.MINUS_MINUS),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("%=", TokenKind.PERCENT_ASSIGN),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    (";", TokenKind.SEMICOLON),
    (",", TokenKind.COMMA),
    (".", TokenKind.DOT),
    (":", TokenKind.COLON),
    ("?", TokenKind.QUESTION),
    ("=", TokenKind.ASSIGN),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("<", TokenKind.LT),
    (">", TokenKind.GT),
    ("!", TokenKind.NOT),
    ("&", TokenKind.BIT_AND),
    ("|", TokenKind.BIT_OR),
    ("^", TokenKind.BIT_XOR),
    ("~", TokenKind.BIT_NOT),
]


class Lexer:
    """Tokenizes one jsl source file."""

    def __init__(self, source: str, filename: str = "<script>"):
        self._source = source
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._col = 1

    def tokenize(self) -> list[Token]:
        """Scan the whole input and return its tokens, ending with EOF."""
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # -- internals ---------------------------------------------------------

    def _position(self) -> SourcePosition:
        return SourcePosition(self._filename, self._line, self._col)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._source):
            return ""
        return self._source[index]

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._source):
                return
            if self._source[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def _skip_trivia(self) -> None:
        """Skip whitespace and comments."""
        while self._pos < len(self._source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                start = self._position()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self._pos >= len(self._source):
                        raise JSLSyntaxError("unterminated block comment", start)
                    self._advance()
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        position = self._position()
        char = self._peek()

        if not char:
            return Token(TokenKind.EOF, None, position)
        if char.isdigit() or (char == "." and self._peek(1).isdigit()):
            return self._scan_number(position)
        if char.isalpha() or char in "_$":
            return self._scan_identifier(position)
        if char in "'\"":
            return self._scan_string(position)

        for spelling, kind in _OPERATORS:
            if self._source.startswith(spelling, self._pos):
                self._advance(len(spelling))
                return Token(kind, spelling, position)

        raise JSLSyntaxError(f"unexpected character {char!r}", position)

    def _scan_number(self, position: SourcePosition) -> Token:
        start = self._pos
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            if not self._is_hex_digit(self._peek()):
                raise JSLSyntaxError("malformed hex literal", position)
            while self._is_hex_digit(self._peek()):
                self._advance()
            text = self._source[start:self._pos]
            return Token(TokenKind.NUMBER, float(int(text, 16)), position)

        while self._peek().isdigit():
            self._advance()
        if self._peek() == "." and self._peek(1).isdigit():
            self._advance()
            while self._peek().isdigit():
                self._advance()
        elif self._peek() == ".":
            # Trailing dot as in `1.` is a valid JS number.
            next_char = self._peek(1)
            if next_char and (next_char.isalpha() or next_char in "_$"):
                pass  # `1.toString` style: leave the dot for member access
            else:
                self._advance()
        if self._peek() and self._peek() in "eE":
            self._advance()
            if self._peek() and self._peek() in "+-":
                self._advance()
            if not self._peek().isdigit():
                raise JSLSyntaxError("malformed exponent", position)
            while self._peek().isdigit():
                self._advance()
        text = self._source[start:self._pos]
        return Token(TokenKind.NUMBER, float(text), position)

    @staticmethod
    def _is_hex_digit(char: str) -> bool:
        return bool(char) and char in "0123456789abcdefABCDEF"

    def _scan_four_hex(self, position: SourcePosition) -> int:
        """Consume exactly four hex digits (the payload of a \\u escape)."""
        digits = "".join(self._peek(i) for i in range(4))
        if len(digits) != 4 or not all(self._is_hex_digit(d) for d in digits):
            raise JSLSyntaxError("malformed unicode escape", position)
        self._advance(4)
        return int(digits, 16)

    def _scan_identifier(self, position: SourcePosition) -> Token:
        start = self._pos
        while True:
            char = self._peek()
            if not char or not (char.isalnum() or char in "_$"):
                break
            self._advance()
        text = self._source[start:self._pos]
        keyword = KEYWORDS.get(text)
        if keyword is not None:
            return Token(keyword, text, position)
        return Token(TokenKind.IDENT, text, position)

    def _scan_string(self, position: SourcePosition) -> Token:
        quote = self._peek()
        self._advance()
        parts: list[str] = []
        while True:
            char = self._peek()
            if not char or char == "\n":
                raise JSLSyntaxError("unterminated string literal", position)
            if char == quote:
                self._advance()
                return Token(TokenKind.STRING, "".join(parts), position)
            if char == "\\":
                self._advance()
                escape = self._peek()
                if escape == "u":
                    self._advance()
                    code_unit = self._scan_four_hex(position)
                    # Combine UTF-16 surrogate pairs (𐀀 etc.) into
                    # the astral code point, matching JS string semantics.
                    if 0xD800 <= code_unit <= 0xDBFF and (
                        self._peek() == "\\" and self._peek(1) == "u"
                    ):
                        mark_pos, mark_col = self._pos, self._col
                        self._advance(2)
                        low = self._scan_four_hex(position)
                        if 0xDC00 <= low <= 0xDFFF:
                            combined = 0x10000 + (
                                (code_unit - 0xD800) << 10
                            ) + (low - 0xDC00)
                            parts.append(chr(combined))
                            continue
                        # Not a low surrogate: rewind (strings contain no
                        # newlines, so restoring the column is enough).
                        self._pos, self._col = mark_pos, mark_col
                        parts.append(chr(code_unit))
                        continue
                    parts.append(chr(code_unit))
                elif escape == "x":
                    self._advance()
                    digits = self._peek() + self._peek(1)
                    if len(digits) != 2 or not all(
                        self._is_hex_digit(d) for d in digits
                    ):
                        raise JSLSyntaxError("malformed hex escape", position)
                    self._advance(2)
                    parts.append(chr(int(digits, 16)))
                elif escape in _ESCAPES:
                    parts.append(_ESCAPES[escape])
                    self._advance()
                else:
                    parts.append(escape)
                    self._advance()
            else:
                parts.append(char)
                self._advance()


def tokenize(source: str, filename: str = "<script>") -> list[Token]:
    """Convenience wrapper: tokenize ``source`` in one call."""
    return Lexer(source, filename).tokenize()
