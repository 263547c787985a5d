"""The semantic preload guard: a well-formed but wrong record cannot
change what a program computes.

``validate_record`` checks a record's structure and handler kinds; it
cannot know whether a handler reads the property its site asks for.
``ReuseSession._preload`` checks that against the validated hidden
class and refuses a handler that does not fit, counting the refusal in
``ric_preloads_refused``.
"""

import random

import pytest

from repro.bytecode.code import FeedbackSlotInfo, SiteKind
from repro.core.config import RICConfig
from repro.core.engine import Engine
from repro.ic.handlers import (
    LoadArrayLengthHandler,
    LoadElementHandler,
    LoadFieldHandler,
    StoreFieldHandler,
)
from repro.lang.errors import SourcePosition
from repro.ric.reuse import handler_fits
from repro.ric.validate import validate_record
from repro.runtime.heap import Heap
from repro.runtime.hidden_class import ARRAY_ROOT_KEY, HiddenClassRegistry
from repro.stats.tracing import RIC_DIVERGENCE, Tracer

#: ``p.x`` is 10 at offset 0; offset 1 holds 500.
POISON_SOURCE = """
function P(x, y) { this.x = x; this.y = y; }
var p = new P(10, 500);
var s = 0;
for (var i = 0; i < 3; i = i + 1) { s = p.x; }
console.log(s);
"""


def poisoned_record():
    """The program's record with its one load_field offset flipped 0 -> 1."""
    engine = Engine(config=RICConfig(specialize=False), seed=1)
    engine.run(POISON_SOURCE, name="poison")
    record = engine.extract_icrecord()
    fields = [h for h in record.handlers if h == {"kind": "load_field", "offset": 0}]
    assert len(fields) == 1
    fields[0]["offset"] = 1
    return record


class TestPoisonedRecord:
    def test_wrong_offset_passes_structural_validation(self):
        assert validate_record(poisoned_record()) == []

    def test_reuse_prints_the_cold_answer(self):
        config = RICConfig(specialize=False)
        cold = Engine(config=config, seed=1).run(POISON_SOURCE, name="poison")
        tracer = Tracer()
        reused = Engine(config=config, seed=1).run(
            POISON_SOURCE, name="poison", icrecord=poisoned_record(), tracer=tracer
        )
        assert cold.console_output == ["10"]
        assert reused.console_output == ["10"]
        refused = reused.counters.ric_preloads_refused
        assert refused >= 1
        assert reused.counters.as_dict()["ric_preloads_refused"] == refused
        assert len(tracer.by_kind(RIC_DIVERGENCE)) >= refused

    def test_honest_record_refuses_nothing(self):
        engine = Engine(config=RICConfig(specialize=False), seed=1)
        engine.run(POISON_SOURCE, name="poison")
        record = engine.extract_icrecord()
        reused = engine.run(POISON_SOURCE, name="poison", icrecord=record)
        assert reused.console_output == ["10"]
        assert reused.counters.ric_preloads > 0
        assert reused.counters.ric_preloads_refused == 0

    def test_naive_ablation_stays_unguarded(self):
        """validate=False is the paper's naive scheme: it must keep
        showing what an unchecked record does."""
        config = RICConfig(specialize=False, validate=False)
        reused = Engine(config=config, seed=1).run(
            POISON_SOURCE, name="poison", icrecord=poisoned_record()
        )
        assert reused.counters.ric_preloads_refused == 0
        assert reused.console_output != ["10"]


@pytest.mark.parametrize("workload_seed", range(3))
def test_honest_per_file_records_refuse_nothing(workload_seed):
    """Records trained on website A and reused on all seven libraries in
    a new order (the warm_reuse shape) never trip the guard."""
    from repro.workloads import WORKLOADS, website_a

    trainer = Engine(seed=3)
    trainer.run(website_a(), name="a")
    records = list(trainer.extract_per_script_records().values())
    names = random.Random(workload_seed).sample(sorted(WORKLOADS), len(WORKLOADS))
    scripts = [(f"{name}.jsl", WORKLOADS[name].source) for name in names]
    reused = Engine(seed=4).run(scripts, name="b", icrecord=records)
    assert reused.counters.ric_preloads > 0
    assert reused.counters.ric_preloads_refused == 0


def _info(kind: SiteKind, name) -> FeedbackSlotInfo:
    return FeedbackSlotInfo(kind, SourcePosition("g.jsl", 1, 1), name)


class TestHandlerFits:
    @pytest.fixture
    def shapes(self):
        registry = HiddenClassRegistry(Heap(seed=1))
        empty = registry.create_root("builtin", "builtin:EmptyObject", None)
        with_a, _ = registry.transition(empty, "a", "g.jsl:1:1:named_store")
        with_ab, _ = registry.transition(with_a, "b", "g.jsl:2:1:named_store")
        array = registry.create_root("builtin", ARRAY_ROOT_KEY, None)
        tagged_array, _ = registry.transition(array, "tag", "g.jsl:3:1:named_store")
        return with_ab, array, tagged_array

    def test_field_handlers_need_the_property_at_their_offset(self, shapes):
        obj = shapes[0]
        assert handler_fits(_info(SiteKind.NAMED_LOAD, "b"), obj, LoadFieldHandler(1))
        assert not handler_fits(_info(SiteKind.NAMED_LOAD, "b"), obj, LoadFieldHandler(0))
        assert not handler_fits(_info(SiteKind.NAMED_LOAD, "c"), obj, LoadFieldHandler(2))
        assert handler_fits(_info(SiteKind.NAMED_STORE, "a"), obj, StoreFieldHandler(0))
        assert not handler_fits(_info(SiteKind.NAMED_STORE, "a"), obj, StoreFieldHandler(1))

    def test_handler_kind_must_match_the_site_kind(self, shapes):
        obj = shapes[0]
        assert not handler_fits(_info(SiteKind.NAMED_STORE, "a"), obj, LoadFieldHandler(0))
        assert not handler_fits(_info(SiteKind.NAMED_LOAD, "a"), obj, StoreFieldHandler(0))

    def test_only_named_sites_take_preloads(self, shapes):
        obj = shapes[0]
        for kind in (SiteKind.GLOBAL_LOAD, SiteKind.KEYED_LOAD):
            assert not handler_fits(_info(kind, "a"), obj, LoadFieldHandler(0))
        assert not handler_fits(_info(SiteKind.KEYED_LOAD, None), obj, LoadElementHandler())
        assert not handler_fits(_info(SiteKind.NAMED_LOAD, "a"), obj, LoadElementHandler())

    def test_array_length_only_on_array_shapes(self, shapes):
        obj, array, tagged_array = shapes
        length = _info(SiteKind.NAMED_LOAD, "length")
        assert handler_fits(length, array, LoadArrayLengthHandler())
        assert handler_fits(length, tagged_array, LoadArrayLengthHandler())
        assert not handler_fits(length, obj, LoadArrayLengthHandler())
        assert not handler_fits(
            _info(SiteKind.NAMED_LOAD, "tag"), tagged_array, LoadArrayLengthHandler()
        )
