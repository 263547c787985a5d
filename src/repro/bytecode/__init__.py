"""Bytecode layer: instruction set, compiler, code objects and code cache."""

from repro.bytecode.cache import CodeCache, source_hash
from repro.bytecode.code import CodeObject, FeedbackSlotInfo, SiteKind
from repro.bytecode.compiler import Compiler, compile_source
from repro.bytecode.disasm import disassemble
from repro.bytecode.opcodes import BinOp, Op, UnOp
from repro.bytecode.optimizer import OptimizeResult, optimize_code

__all__ = [
    "BinOp",
    "CodeCache",
    "CodeObject",
    "Compiler",
    "FeedbackSlotInfo",
    "Op",
    "OptimizeResult",
    "optimize_code",
    "SiteKind",
    "UnOp",
    "compile_source",
    "disassemble",
    "source_hash",
]
