"""The dispatch table is total, convention-bound, and semantics-preserving.

Guards the PR-2 interpreter rewrite:

* every :class:`Op` resolves to its own ``_op_<name>`` handler — adding an
  opcode without a handler must fail loudly (at VM construction *and*
  here),
* gap values between opcodes stay "unknown opcode" errors,
* the inline IC fast paths (GET_PROP/SET_PROP, LOAD_GLOBAL/STORE_GLOBAL,
  GET_INDEX) are observationally identical to the generic miss path:
  same output, same counters (to the instruction), same ICVector
  transitions.
"""

from __future__ import annotations

import pytest

from repro.bytecode.compiler import compile_source
from repro.bytecode.code import SiteKind
from repro.bytecode.opcodes import Op
from repro.ic.handlers import LoadFieldHandler
from repro.ic.icvector import FeedbackState
from repro.ic.miss import ICRuntime
from repro.interpreter.vm import VM
from repro.lang.errors import JSLRuntimeError
from repro.runtime.builtins import install_builtins
from repro.runtime.context import Runtime
from repro.stats.counters import Counters


def make_vm(fastpaths: bool = True) -> VM:
    runtime = Runtime(seed=3)
    counters = Counters()
    runtime.hidden_classes.on_created = lambda hc: None
    install_builtins(runtime)
    return VM(
        runtime, counters, ICRuntime(runtime, counters), FeedbackState(),
        fastpaths=fastpaths,
    )


class TestTableConstruction:
    def test_every_opcode_has_its_own_handler(self):
        vm = make_vm()
        names = set()
        for op in Op:
            handler = vm.dispatch_handler(op)
            expected = f"_op_{op.name.lower()}"
            assert handler.__func__.__name__ == expected, (
                f"{op.name} is bound to {handler.__func__.__name__}"
            )
            names.add(handler.__func__.__name__)
        # Injective: no two opcodes share a handler method.
        assert len(names) == len(list(Op))

    def test_gap_values_raise_unknown_opcode(self):
        vm = make_vm()
        gaps = [value for value in range(max(Op) + 1) if value not in set(Op)]
        assert gaps, "Op values currently have gaps; update this test if not"
        for value in gaps:
            handler = vm._dispatch[value]
            assert handler.__func__.__name__ == "_op_invalid"
        with pytest.raises(JSLRuntimeError, match="unknown opcode"):
            vm._dispatch[gaps[0]](None, 0, 0, 0)

    def test_new_opcode_without_handler_fails_at_construction(self):
        class IncompleteVM(VM):
            _op_load_const = None  # simulates Op.LOAD_CONST with no handler

        with pytest.raises(NotImplementedError, match="LOAD_CONST"):
            _construct(IncompleteVM)

    def test_fastpaths_flag_swaps_in_generic_property_handlers(self):
        fast = make_vm(fastpaths=True)
        slow = make_vm(fastpaths=False)
        for op in (
            Op.GET_PROP,
            Op.SET_PROP,
            Op.LOAD_GLOBAL,
            Op.STORE_GLOBAL,
            Op.GET_INDEX,
        ):
            name = f"_op_{op.name.lower()}"
            assert fast.dispatch_handler(op).__func__.__name__ == name
            assert slow.dispatch_handler(op).__func__.__name__ == name + "_generic"


def _construct(vm_class) -> VM:
    runtime = Runtime(seed=3)
    counters = Counters()
    runtime.hidden_classes.on_created = lambda hc: None
    install_builtins(runtime)
    return vm_class(
        runtime, counters, ICRuntime(runtime, counters), FeedbackState()
    )


# -- fast path vs generic path differential -----------------------------------

#: Exercises every IC state the sites can reach: monomorphic hits,
#: polymorphic and megamorphic dispatch, add-transitions, prototype-chain
#: loads, not-found loads, and constructor-"prototype" store invalidation.
PROPERTY_STRESS = """
function read(o) { return o.v; }
function write(o, x) { o.v = x; }

var mono = { v: 1 };
var total = 0;
for (var i = 0; i < 40; i++) { write(mono, i); total += read(mono); }
console.log("mono", total);

function readPoly(o) { return o.v; }
var shapes = [ { v: 1 }, { a: 0, v: 2 }, { b: 0, c: 0, v: 3 } ];
var poly = 0;
for (var j = 0; j < 30; j++) { poly += readPoly(shapes[j % 3]); }
console.log("poly", poly);

var mega = [
  { v: 1 }, { m1: 0, v: 2 }, { m2: 0, v: 3 },
  { m3: 0, v: 4 }, { m4: 0, v: 5 }, { m5: 0, v: 6 }
];
var megaTotal = 0;
for (var k = 0; k < 24; k++) { megaTotal += read(mega[k % 6]); }
console.log("mega", megaTotal);

function Point(x, y) { this.x = x; this.y = y; }
Point.prototype.norm1 = function () { return this.x + this.y; };
var points = [];
for (var p = 0; p < 10; p++) { points.push(new Point(p, p + 1)); }
var norms = 0;
for (var q = 0; q < points.length; q++) { norms += points[q].norm1(); }
console.log("proto", norms);

var sparse = { present: 1 };
var misses = 0;
for (var r = 0; r < 8; r++) {
  if (sparse.absent === undefined) { misses++; }
}
console.log("notfound", misses, sparse.present);

var grown = {};
grown.a = 1; grown.b = 2; grown.c = 3; grown.d = 4;
console.log("transitions", grown.a + grown.b + grown.c + grown.d);
"""


def run_stress(fastpaths: bool):
    vm = make_vm(fastpaths=fastpaths)
    code = compile_source(PROPERTY_STRESS, "stress.jsl")
    vm.feedback.register_script(code)
    vm.run_code(code)
    return vm


def ic_transcript(vm: VM) -> list[tuple]:
    """Canonical per-site IC state: comparable across two identical runs
    (hidden-class addresses are deterministic for a fixed seed)."""
    transcript = []
    for site in vm.feedback.all_sites():
        transcript.append(
            (
                site.info.site_key,
                site.state.value,
                tuple(
                    (hc.address, handler.kind, handler.is_context_independent)
                    for hc, handler in site.slots
                ),
            )
        )
    return transcript


class TestFastPathEquivalence:
    @pytest.fixture(scope="class")
    def vms(self):
        return run_stress(fastpaths=True), run_stress(fastpaths=False)

    def test_same_console_output(self, vms):
        fast, slow = vms
        assert fast.runtime.console_output == slow.runtime.console_output
        assert len(fast.runtime.console_output) == 6

    def test_same_counters_to_the_instruction(self, vms):
        fast, slow = vms
        assert fast.counters.as_dict() == slow.counters.as_dict()
        assert fast.counters.ic_hits > 0 and fast.counters.ic_misses > 0

    def test_same_icvector_transitions(self, vms):
        fast, slow = vms
        assert ic_transcript(fast) == ic_transcript(slow)
        states = {entry[1] for entry in ic_transcript(fast)}
        # The stress program must actually reach all three warm states.
        assert {"monomorphic", "polymorphic", "megamorphic"} <= states


# -- front-slot fast paths: guards the generic path relies on ------------------

#: A keyed site whose front slot matches the receiver's hidden class but
#: holds a non-element handler — the state a wrong record's preload can
#: leave behind.  GET_INDEX must treat it as a miss, like the generic
#: path, not read an element through it.
FOREIGN_KEYED_SLOT = """
function at(c, k) { return c[k]; }
var a = [5, 6, 7];
console.log(at(a, 1), at(a, 2), at(a, 0));
"""


def run_with_foreign_keyed_slot(fastpaths: bool) -> VM:
    vm = make_vm(fastpaths=fastpaths)
    code = compile_source(FOREIGN_KEYED_SLOT, "foreign.jsl")
    vm.feedback.register_script(code)
    (site,) = [
        site
        for site in vm.feedback.all_sites()
        if site.info.kind is SiteKind.KEYED_LOAD
    ]
    site.install(vm.runtime.array_hc, LoadFieldHandler(0), preloaded=True)
    vm.run_code(code)
    return vm


def test_get_index_ignores_a_foreign_front_slot():
    fast = run_with_foreign_keyed_slot(fastpaths=True)
    slow = run_with_foreign_keyed_slot(fastpaths=False)
    assert fast.runtime.console_output == slow.runtime.console_output == ["6 7 5"]
    assert fast.counters.as_dict() == slow.counters.as_dict()
    assert ic_transcript(fast) == ic_transcript(slow)
