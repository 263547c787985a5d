"""The type-feedback recorder: operand classification and persistence.

The VM's arithmetic handlers call :func:`operand_type_bits` on every
BINARY / fused-compare dispatch and OR the result into the ICVector's
per-pc ``arith`` mask list — one list index, one attribute load, one
``|=`` on the hot path.  Extraction reads the accumulated masks through
:func:`collect_arith_feedback` and turns stable profiles into
``site_feedback`` entries (and unstable ones into tombstones) for the
quickening pass to spend on the next run.

Type bits are shared with the wire format
(:mod:`repro.ric.icrecord`'s ``FEEDBACK_*`` constants): a mask recorded
here round-trips through a v5 record unchanged.
"""

from __future__ import annotations

import typing
from itertools import compress
from operator import itemgetter

from repro.bytecode.opcodes import BinOp, Op
from repro.ric.icrecord import (
    FEEDBACK_ARITH,
    FEEDBACK_BOOL,
    FEEDBACK_FLOAT,
    FEEDBACK_INT,
    FEEDBACK_OBJ,
    FEEDBACK_OTHER,
    FEEDBACK_PROP_LOAD,
    FEEDBACK_PROP_STORE,
    FEEDBACK_STR,
    SiteFeedback,
)
from repro.runtime.objects import JSObject

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.bytecode.code import CodeObject
    from repro.ic.icvector import FeedbackState

#: Masks entirely inside this set are specializable number arithmetic.
NUMERIC_MASK = FEEDBACK_INT | FEEDBACK_FLOAT

#: BINARY operators the quickening pass has typed variants for.
ARITH_BINOPS = frozenset((int(BinOp.ADD), int(BinOp.SUB), int(BinOp.MUL)))

#: Comparison operators appearing in fused CMP_JUMP_IF_* instructions
#: (mirrors the optimizer's fusion set) — all have typed variants.
CMP_BINOPS = frozenset(
    (
        int(BinOp.EQ),
        int(BinOp.NEQ),
        int(BinOp.STRICT_EQ),
        int(BinOp.STRICT_NEQ),
        int(BinOp.LT),
        int(BinOp.GT),
        int(BinOp.LE),
        int(BinOp.GE),
    )
)

#: Typed arithmetic opcodes imply their own mask: code that still carries
#: one at extraction time ran its guard successfully every time, which is
#: exactly the profile that produced it.  Used to re-synthesize feedback
#: when extracting from a quickened run (the generic recorder never saw
#: those dispatches).
SYNTHESIZED_MASKS: dict[int, int] = {
    int(Op.ADD_INT): FEEDBACK_INT,
    int(Op.ADD_NUM): NUMERIC_MASK,
    int(Op.SUB_NUM): NUMERIC_MASK,
    int(Op.MUL_NUM): NUMERIC_MASK,
    int(Op.CMP_INT_JUMP_IF_FALSE): FEEDBACK_INT,
    int(Op.CMP_INT_JUMP_IF_TRUE): FEEDBACK_INT,
    int(Op.CMP_NUM_JUMP_IF_FALSE): NUMERIC_MASK,
    int(Op.CMP_NUM_JUMP_IF_TRUE): NUMERIC_MASK,
}

_BINARY = int(Op.BINARY)
_GENERIC_CMP_OPS = frozenset((int(Op.CMP_JUMP_IF_FALSE), int(Op.CMP_JUMP_IF_TRUE)))

_TYPED_ARITH_BINOP: dict[int, int] = {
    int(Op.ADD_INT): int(BinOp.ADD),
    int(Op.ADD_NUM): int(BinOp.ADD),
    int(Op.SUB_NUM): int(BinOp.SUB),
    int(Op.MUL_NUM): int(BinOp.MUL),
}


def operand_type_bits(left: object, right: object) -> int:
    """Classify a binary operation's operand pair into feedback bits.

    All jsl numbers are Python floats; integral floats (the common case
    for loop counters and indices) get their own bit so int-only sites
    can claim the tighter ADD_INT/CMP_INT guards.  ``bool`` is *not* a
    float here (guests doing ``true + 1`` coerce) and objects cover the
    whole JSObject hierarchy, including arrays and functions.
    """
    t = type(left)
    if t is float:
        bits = FEEDBACK_INT if left.is_integer() else FEEDBACK_FLOAT
    elif t is str:
        bits = FEEDBACK_STR
    elif t is bool:
        bits = FEEDBACK_BOOL
    elif isinstance(left, JSObject):
        bits = FEEDBACK_OBJ
    else:
        bits = FEEDBACK_OTHER
    t = type(right)
    if t is float:
        return bits | (FEEDBACK_INT if right.is_integer() else FEEDBACK_FLOAT)
    if t is str:
        return bits | FEEDBACK_STR
    if t is bool:
        return bits | FEEDBACK_BOOL
    if isinstance(right, JSObject):
        return bits | FEEDBACK_OBJ
    return bits | FEEDBACK_OTHER


def arith_site_key(code: "CodeObject", pc: int) -> str:
    """Stable cross-execution identity of one arithmetic site.

    ``decl_key`` is the function's declaration position (file:line:col
    plus name) and the pc is stable because compilation and optimization
    are deterministic for identical source — and records are only ever
    trusted for content-matched scripts (``script_keys``).
    """
    return f"{code.decl_key}@{pc}:arith"


def collect_arith_feedback(
    feedback: "FeedbackState",
    filename: str | None = None,
) -> dict[str, SiteFeedback]:
    """Distill this run's recorded operand masks into persistable entries.

    Per arithmetic site: a mask entirely within :data:`NUMERIC_MASK`
    becomes a positive entry (the quickening pass picks INT or NUM
    variants from the exact bits); a mask mixing numbers with any other
    class becomes a tombstone (type-unstable — specializing it would
    deopt); a purely non-numeric mask (string concatenation, ``+`` on
    objects) is simply omitted — nothing to specialize, nothing to
    protect against.  Sites still carrying a typed opcode (this was a
    quickened run) re-synthesize the mask their guard proved.

    ``filename`` restricts output to sites declared in one file, for
    per-script records.
    """
    out: dict[str, SiteFeedback] = {}
    for vector in feedback.all_vectors():
        code = vector.code
        if filename is not None and code.filename != filename:
            continue
        masks = vector.arith
        instructions = code.instructions
        # Only pcs that executed (non-zero mask) or carry a typed opcode
        # can yield an entry; pick both out at C speed.
        pcs = set(compress(range(len(masks)), masks))
        pcs.update(
            compress(
                range(len(instructions)),
                map(SYNTHESIZED_MASKS.__contains__, map(itemgetter(0), instructions)),
            )
        )
        for pc in sorted(pcs):
            op, a, b = instructions[pc]
            synthesized = 0
            if op == _BINARY and a in ARITH_BINOPS:
                binop = a
            elif op in _GENERIC_CMP_OPS and b in CMP_BINOPS:
                binop = b
            elif op in _TYPED_ARITH_BINOP:
                binop = _TYPED_ARITH_BINOP[op]
                synthesized = SYNTHESIZED_MASKS[op]
            elif op in SYNTHESIZED_MASKS:  # typed compare-and-jump
                binop = b
                synthesized = SYNTHESIZED_MASKS[op]
            else:
                continue
            mask = masks[pc] | synthesized
            key = arith_site_key(code, pc)
            if not mask & ~NUMERIC_MASK:
                out[key] = SiteFeedback(
                    kind=FEEDBACK_ARITH, op=int(binop), types=mask
                )
            elif mask & NUMERIC_MASK:
                out[key] = SiteFeedback(kind=FEEDBACK_ARITH, mega=True)
    return out


def demotion_tombstones(
    demoted: set[str],
    filename: str | None = None,
) -> typing.Iterator[tuple[str, SiteFeedback]]:
    """Tombstones for every site whose typed guard failed this run.

    The site kind is recoverable from the key shape (arith keys end in
    ``:arith``, property keys in the SiteKind value).  Tombstones
    override whatever the recorder re-learned post-deopt: a site that
    thrashed once must not ping-pong back into specialization on the
    next extraction.
    """
    for key in sorted(demoted):
        if filename is not None and not key.startswith(f"{filename}:"):
            continue
        if key.endswith(":arith"):
            kind = FEEDBACK_ARITH
        elif key.endswith(":named_store"):
            kind = FEEDBACK_PROP_STORE
        else:
            kind = FEEDBACK_PROP_LOAD
        yield key, SiteFeedback(kind=kind, mega=True)
