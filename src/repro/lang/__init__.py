"""jsl language frontend: lexer, parser and AST.

The public entry point is :func:`repro.lang.parse`, which turns jsl source
text into an AST consumed by :mod:`repro.bytecode.compiler`.
"""

from repro.lang.errors import (
    JSLCompileError,
    JSLError,
    JSLRangeError,
    JSLReferenceError,
    JSLRuntimeError,
    JSLSyntaxError,
    JSLTypeError,
    SourcePosition,
)
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser, parse

__all__ = [
    "JSLCompileError",
    "JSLError",
    "JSLRangeError",
    "JSLReferenceError",
    "JSLRuntimeError",
    "JSLSyntaxError",
    "JSLTypeError",
    "Parser",
    "SourcePosition",
    "parse",
    "tokenize",
]
