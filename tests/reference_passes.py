"""Reference bytecode passes for differential tests (test-only, never
imported by src).

Plain full scans over every instruction, comparing against ``Op``
attributes: the straightforward form of the quickening rewrite and of
arithmetic-feedback collection.  ``repro.specialize`` selects the pcs it
visits instead; these references are what its output must equal, entry
for entry and in the same order.
"""

from __future__ import annotations

from repro.bytecode.code import CodeObject
from repro.bytecode.opcodes import Op
from repro.ric.icrecord import (
    FEEDBACK_ARITH,
    FEEDBACK_INT,
    FEEDBACK_PROP_LOAD,
    FEEDBACK_PROP_STORE,
    SiteFeedback,
)
from repro.specialize.feedback import (
    _TYPED_ARITH_BINOP,
    ARITH_BINOPS,
    CMP_BINOPS,
    NUMERIC_MASK,
    SYNTHESIZED_MASKS,
    arith_site_key,
)
from repro.specialize.quicken import _CMP_VARIANTS, _arith_replacement


def collect_arith_feedback(feedback, filename=None) -> dict:
    """Every instruction of every vector, in pc order."""
    out: dict[str, SiteFeedback] = {}
    for vector in feedback.all_vectors():
        code = vector.code
        if filename is not None and code.filename != filename:
            continue
        masks = vector.arith
        for pc, (op, a, b) in enumerate(code.instructions):
            synthesized = 0
            if op == Op.BINARY and a in ARITH_BINOPS:
                binop = a
            elif (
                op in (Op.CMP_JUMP_IF_FALSE, Op.CMP_JUMP_IF_TRUE)
                and b in CMP_BINOPS
            ):
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
            if not mask:
                continue  # site never executed
            key = arith_site_key(code, pc)
            if not mask & ~NUMERIC_MASK:
                out[key] = SiteFeedback(
                    kind=FEEDBACK_ARITH, op=int(binop), types=mask
                )
            elif mask & NUMERIC_MASK:
                out[key] = SiteFeedback(kind=FEEDBACK_ARITH, mega=True)
    return out


def _rewrite(code: CodeObject, feedback: dict):
    new_instructions = None
    spec_table: list[tuple[int, int]] = []
    count = 0
    for pc, (op, a, b) in enumerate(code.instructions):
        replacement = None
        if op == Op.BINARY and a in ARITH_BINOPS:
            fb = feedback.get(arith_site_key(code, pc))
            if (
                fb is not None
                and not fb.mega
                and fb.kind == FEEDBACK_ARITH
                and fb.op == a
            ):
                typed = _arith_replacement(a, fb.types)
                if typed is not None:
                    replacement = (typed, a, b)
        elif op in _CMP_VARIANTS and b in CMP_BINOPS:
            fb = feedback.get(arith_site_key(code, pc))
            if (
                fb is not None
                and not fb.mega
                and fb.kind == FEEDBACK_ARITH
                and fb.op == b
                and fb.types
                and not fb.types & ~NUMERIC_MASK
            ):
                int_only = not fb.types & ~FEEDBACK_INT
                replacement = (_CMP_VARIANTS[op][0 if int_only else 1], a, b)
        elif op == Op.GET_PROP:
            fb = feedback.get(code.feedback_slots[b].site_key)
            if (
                fb is not None
                and not fb.mega
                and fb.kind == FEEDBACK_PROP_LOAD
                and fb.offset >= 0
            ):
                spec_table.append((a, fb.offset))
                replacement = (int(Op.GET_PROP_SLOT), len(spec_table) - 1, b)
        elif op == Op.SET_PROP:
            fb = feedback.get(code.feedback_slots[b].site_key)
            if (
                fb is not None
                and not fb.mega
                and fb.kind == FEEDBACK_PROP_STORE
                and fb.offset >= 0
                and code.names[a] != "prototype"
            ):
                spec_table.append((a, fb.offset))
                replacement = (int(Op.SET_PROP_SLOT), len(spec_table) - 1, b)
        if replacement is not None:
            if new_instructions is None:
                new_instructions = list(code.instructions)
            new_instructions[pc] = replacement
            count += 1
    return new_instructions, spec_table, count


def quicken_code(code: CodeObject, feedback: dict):
    """``(quickened clone or the original tree, sites specialized)``."""
    if not feedback:
        return code, 0
    total = 0

    def walk(node: CodeObject) -> CodeObject:
        nonlocal total
        new_instructions, spec_table, count = _rewrite(node, feedback)
        new_constants = None
        for index, constant in enumerate(node.constants):
            if isinstance(constant, CodeObject):
                quickened = walk(constant)
                if quickened is not constant:
                    if new_constants is None:
                        new_constants = list(node.constants)
                    new_constants[index] = quickened
        if count == 0 and new_constants is None:
            return node
        total += count
        return CodeObject(
            name=node.name,
            filename=node.filename,
            params=node.params,
            position=node.position,
            instructions=(
                new_instructions
                if new_instructions is not None
                else node.instructions
            ),
            positions=node.positions,
            constants=(
                new_constants if new_constants is not None else node.constants
            ),
            names=node.names,
            local_names=node.local_names,
            feedback_slots=node.feedback_slots,
            decl_key=node.decl_key,
            spec_table=spec_table,
        )

    return walk(code), total
