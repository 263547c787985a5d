"""Module-level unit tests for FeedbackState and ReuseSession internals
(no engine; structures are driven directly)."""

from repro.bytecode.compiler import compile_source
from repro.core.config import RICConfig
from repro.ic.handlers import LoadFieldHandler
from repro.ic.icvector import POLY_LIMIT, FeedbackState, ICState
from repro.ric.icrecord import DependentEntry, HCVTRow, ICRecord, SiteSlot, ToastPair
from repro.ric.reuse import ReuseSession
from repro.runtime.heap import Heap
from repro.runtime.hidden_class import HiddenClassRegistry
from repro.stats.counters import MISS_HANDLER, MISS_OTHER, Counters


def make_feedback(source="var v = o.x; o.x = 1;", filename="u.jsl"):
    code = compile_source(source, filename)
    feedback = FeedbackState()
    feedback.register_script(code)
    return code, feedback


class TestFeedbackState:
    def test_register_is_idempotent(self):
        code, feedback = make_feedback()
        before = len(list(feedback.all_sites()))
        feedback.register_script(code)
        assert len(list(feedback.all_sites())) == before

    def test_vector_for_round_trips(self):
        code, feedback = make_feedback()
        vector = feedback.vector_for(code)
        assert len(vector) == len(code.feedback_slots)
        assert vector[0].info is code.feedback_slots[0]

    def test_site_by_key_finds_every_site(self):
        code, feedback = make_feedback()
        for info in code.feedback_slots:
            assert feedback.site_by_key(info.site_key) is not None

    def test_unknown_key_is_none(self):
        _, feedback = make_feedback()
        assert feedback.site_by_key("nope:1:1:named_load") is None

    def test_nested_functions_registered(self):
        code, feedback = make_feedback("function f(o) { return o.y; } f({y: 1});")
        keys = {site.info.site_key for site in feedback.all_sites()}
        assert any(":named_load" in key and "y" or False for key in keys)
        nested = [c for c in code.iter_code_objects() if c.name == "f"][0]
        assert feedback.vector_for(nested) is not None


def make_record_and_session(dependents=None, cd_sites=None, config=None):
    """A two-row record: HCID 0 = builtin empty object, HCID 1 = +x."""
    record = ICRecord()
    record.handlers = [{"kind": "load_field", "offset": 0}]
    record.hcvt = [
        HCVTRow(hcid=0),
        HCVTRow(
            hcid=1,
            dependents=[
                DependentEntry(site_key, 0) for site_key in (dependents or [])
            ],
            cd_dependent_sites=list(cd_sites or []),
        ),
    ]
    record.toast = {
        "builtin:EmptyObject": [ToastPair(None, None, 0)],
        "u.jsl:1:16:named_store": [ToastPair(0, "x", 1)],
    }
    code, feedback = make_feedback("var v = o.x; o.x = 1;")
    counters = Counters()
    session = ReuseSession(record, feedback, counters, config or RICConfig())
    return record, feedback, counters, session, code


def registry():
    return HiddenClassRegistry(Heap(seed=1))


class TestReuseSessionValidation:
    def test_builtin_key_validates(self):
        _, _, counters, session, _ = make_record_and_session()
        reg = registry()
        root = reg.create_root("builtin", "builtin:EmptyObject", None)
        session.on_hidden_class_created(root)
        assert 0 in session.validated
        assert session.address_by_hcid[0] == root.address
        assert counters.ric_validations == 1

    def test_unknown_key_is_ignored(self):
        _, _, counters, session, _ = make_record_and_session()
        reg = registry()
        stranger = reg.create_root("builtin", "builtin:NotInRecord", None)
        session.on_hidden_class_created(stranger)
        assert not session.validated
        assert counters.ric_divergences == 0  # unknown != divergent

    def test_transition_validates_when_incoming_matches(self):
        load_key = None
        _, feedback, counters, session, code = make_record_and_session()
        reg = registry()
        root = reg.create_root("builtin", "builtin:EmptyObject", None)
        session.on_hidden_class_created(root)
        outgoing, _ = reg.transition(root, "x", "u.jsl:1:16:named_store")
        session.on_hidden_class_created(outgoing)
        assert 1 in session.validated
        del load_key

    def test_transition_property_mismatch_diverges(self):
        _, _, counters, session, _ = make_record_and_session()
        reg = registry()
        root = reg.create_root("builtin", "builtin:EmptyObject", None)
        session.on_hidden_class_created(root)
        wrong_prop, _ = reg.transition(root, "z", "u.jsl:1:16:named_store")
        session.on_hidden_class_created(wrong_prop)
        assert 1 not in session.validated
        assert counters.ric_divergences == 1

    def test_incoming_address_mismatch_diverges(self):
        _, _, counters, session, _ = make_record_and_session()
        reg = registry()
        root = reg.create_root("builtin", "builtin:EmptyObject", None)
        imposter = reg.create_root("builtin", "builtin:EmptyObject", None)
        session.on_hidden_class_created(root)  # validates at root's address
        outgoing, _ = reg.transition(imposter, "x", "u.jsl:1:16:named_store")
        session.on_hidden_class_created(outgoing)
        assert 1 not in session.validated
        assert counters.ric_divergences == 1

    def test_unvalidated_incoming_diverges(self):
        _, _, counters, session, _ = make_record_and_session()
        reg = registry()
        root = reg.create_root("builtin", "builtin:EmptyObject", None)
        # Root never offered to the session -> HCID 0 not validated.
        outgoing, _ = reg.transition(root, "x", "u.jsl:1:16:named_store")
        session.on_hidden_class_created(outgoing)
        assert 1 not in session.validated


class TestReuseSessionPreloading:
    LOAD_KEY = "u.jsl:1:11:named_load"

    def drive(self, session, feedback):
        reg = registry()
        root = reg.create_root("builtin", "builtin:EmptyObject", None)
        session.on_hidden_class_created(root)
        outgoing, _ = reg.transition(root, "x", "u.jsl:1:16:named_store")
        session.on_hidden_class_created(outgoing)
        return outgoing

    def test_validation_preloads_dependent(self):
        _, feedback, counters, session, _ = make_record_and_session(
            dependents=[self.LOAD_KEY]
        )
        outgoing = self.drive(session, feedback)
        site = feedback.site_by_key(self.LOAD_KEY)
        assert site.lookup(outgoing) is not None
        assert site.was_preloaded(outgoing)
        assert counters.ric_preloads == 1

    def test_missing_site_is_skipped(self):
        _, feedback, counters, session, _ = make_record_and_session(
            dependents=["other.jsl:9:9:named_load"]
        )
        self.drive(session, feedback)
        assert counters.ric_preloads == 0

    def test_linking_disabled_skips_preloads(self):
        _, feedback, counters, session, _ = make_record_and_session(
            dependents=[self.LOAD_KEY], config=RICConfig(enable_linking=False)
        )
        self.drive(session, feedback)
        assert counters.ric_preloads == 0

    def test_full_site_not_overfilled(self):
        _, feedback, counters, session, _ = make_record_and_session(
            dependents=[self.LOAD_KEY]
        )
        site = feedback.site_by_key(self.LOAD_KEY)
        reg = registry()
        for _ in range(POLY_LIMIT):
            filler = reg.create_root("builtin", "builtin:filler", None)
            site.install(filler, LoadFieldHandler(0))
        self.drive(session, feedback)
        assert counters.ric_preloads == 0
        assert site.state is not ICState.MEGAMORPHIC  # preload didn't tip it

    def test_existing_slot_not_duplicated(self):
        _, feedback, counters, session, _ = make_record_and_session(
            dependents=[self.LOAD_KEY]
        )
        reg = registry()
        root = reg.create_root("builtin", "builtin:EmptyObject", None)
        session.on_hidden_class_created(root)
        outgoing, _ = reg.transition(root, "x", "u.jsl:1:16:named_store")
        site = feedback.site_by_key(self.LOAD_KEY)
        site.install(outgoing, LoadFieldHandler(0))  # already there
        session.on_hidden_class_created(outgoing)
        assert counters.ric_preloads == 0
        assert len(site.slots) == 1


_STATE_ORDER = [
    ICState.UNINITIALIZED,
    ICState.MONOMORPHIC,
    ICState.POLYMORPHIC,
    ICState.MEGAMORPHIC,
]


class TestICStateMachine:
    """Property tests for the UNINITIALIZED → MONO → POLY → MEGA machine
    driven directly on an :class:`ICSite` (INTERNALS §13)."""

    LOAD_KEY = "u.jsl:1:11:named_load"

    def fresh_site(self):
        _, feedback = make_feedback()
        return feedback.site_by_key(self.LOAD_KEY)

    def shapes(self, count):
        reg = registry()
        return [
            reg.create_root("builtin", f"builtin:S{i}", None) for i in range(count)
        ]

    def test_transitions_are_monotone(self):
        """Installs only ever move the state rightwards along
        UNINIT → MONO → POLY → MEGA, one shape at a time."""
        site = self.fresh_site()
        seen = [site.state]
        for hc in self.shapes(POLY_LIMIT + 1):
            site.install(hc, LoadFieldHandler(0))
            seen.append(site.state)
        ranks = [_STATE_ORDER.index(state) for state in seen]
        assert ranks == sorted(ranks)
        assert seen[0] is ICState.UNINITIALIZED
        assert seen[1] is ICState.MONOMORPHIC
        assert all(s is ICState.POLYMORPHIC for s in seen[2:-1])
        assert seen[-1] is ICState.MEGAMORPHIC

    def test_never_leaves_megamorphic(self):
        site = self.fresh_site()
        shapes = self.shapes(POLY_LIMIT + 3)
        for hc in shapes:
            site.install(hc, LoadFieldHandler(0))
        assert site.state is ICState.MEGAMORPHIC
        assert site.slots == []
        # Neither new nor previously-seen shapes reanimate the site.
        for hc in shapes:
            assert site.install(hc, LoadFieldHandler(0)) is False
            assert site.state is ICState.MEGAMORPHIC
            assert site.slots == []
            assert site.lookup(hc) is None

    def test_slots_never_shrink_before_mega(self):
        site = self.fresh_site()
        shapes = self.shapes(POLY_LIMIT)
        sizes = []
        for hc in shapes:
            site.install(hc, LoadFieldHandler(0))
            sizes.append(len(site.slots))
            # Re-installing a seen shape replaces in place, never shrinks.
            site.install(hc, LoadFieldHandler(1))
            sizes.append(len(site.slots))
        assert sizes == sorted(sizes)
        assert len(site.slots) == POLY_LIMIT
        assert site.state is ICState.POLYMORPHIC

    def test_mru_reorder_preserves_the_slot_set(self):
        site = self.fresh_site()
        shapes = self.shapes(3)
        handlers = {hc.address: LoadFieldHandler(i) for i, hc in enumerate(shapes)}
        for hc in shapes:
            site.install(hc, handlers[hc.address])
        before = {entry[0].address: entry[1] for entry in site.slots}

        # A hit moves its entry to the front and changes nothing else.
        assert site.lookup(shapes[2]) is handlers[shapes[2].address]
        assert site.slots[0][0] is shapes[2]
        assert {entry[0].address: entry[1] for entry in site.slots} == before
        assert site.state is ICState.POLYMORPHIC

        # A miss leaves the order alone entirely.
        order = [entry[0].address for entry in site.slots]
        stranger = registry().create_root("builtin", "builtin:stranger", None)
        assert site.lookup(stranger) is None
        assert [entry[0].address for entry in site.slots] == order

    def _poly_record_session(self, plan_order):
        """A record with three builtin rows, all Dependents of LOAD_KEY,
        whose persisted slot order is ``plan_order`` (a permutation of
        hcids)."""
        record = ICRecord()
        record.handlers = [{"kind": "load_field", "offset": 0}]
        record.hcvt = [
            HCVTRow(hcid=i, dependents=[DependentEntry(self.LOAD_KEY, 0)])
            for i in range(3)
        ]
        record.toast = {
            f"builtin:S{i}": [ToastPair(None, None, i)] for i in range(3)
        }
        record.site_slots = {
            self.LOAD_KEY: [SiteSlot(hcid, 0) for hcid in plan_order]
        }
        _, feedback = make_feedback()
        counters = Counters()
        session = ReuseSession(record, feedback, counters, RICConfig())
        return record, feedback, counters, session

    def test_preloaded_slots_follow_the_persisted_order(self):
        """Whatever order validation happens in, a fully-preloaded POLY
        site ends up probing in the extraction-time (MRU) order."""
        _, feedback, counters, session = self._poly_record_session([2, 0, 1])
        reg = registry()
        # Each shape holds the site's property where the record's
        # handler reads it (the preload guard refuses anything else).
        shapes = [
            reg.create_root("builtin", f"builtin:S{i}", None, layout={"x": 0})
            for i in range(3)
        ]
        for hc in shapes:  # validate in hcid order: 0, 1, 2
            session.on_hidden_class_created(hc)
        site = feedback.site_by_key(self.LOAD_KEY)
        assert counters.ric_preloads == 3
        assert site.state is ICState.POLYMORPHIC
        assert [entry[0] for entry in site.slots] == [
            shapes[2],
            shapes[0],
            shapes[1],
        ]
        assert all(site.was_preloaded(hc) for hc in shapes)

    def test_preloaded_site_equivalent_to_organically_warmed(self):
        """A persisted-then-preloaded vector behaves exactly like one the
        run warmed itself: same slot set, same handlers, same state, and
        the same MRU evolution under a common probe sequence."""
        _, feedback, _, session = self._poly_record_session([2, 0, 1])
        reg = registry()
        # Each shape holds the site's property where the record's
        # handler reads it (the preload guard refuses anything else).
        shapes = [
            reg.create_root("builtin", f"builtin:S{i}", None, layout={"x": 0})
            for i in range(3)
        ]
        for hc in shapes:
            session.on_hidden_class_created(hc)
        preloaded = feedback.site_by_key(self.LOAD_KEY)

        organic = self.fresh_site()
        for hc in shapes:
            organic.install(hc, LoadFieldHandler(0))

        assert preloaded.state is organic.state is ICState.POLYMORPHIC
        assert {e[0].address for e in preloaded.slots} == {
            e[0].address for e in organic.slots
        }
        for hc in shapes:
            got_a, got_b = preloaded.lookup(hc), organic.lookup(hc)
            assert type(got_a) is type(got_b)
            assert got_a.offset == got_b.offset

        # Initial orders may differ (plan vs install order) but MRU
        # converges them under any shared access sequence.
        for hc in (shapes[1], shapes[0], shapes[1]):
            preloaded.lookup(hc)
            organic.lookup(hc)
        assert [e[0] for e in preloaded.slots] == [e[0] for e in organic.slots]


class TestMissClassification:
    def test_cd_dependent_site_classified_handler(self):
        load_key = "u.jsl:1:11:named_load"
        _, feedback, counters, session, _ = make_record_and_session(
            cd_sites=[load_key]
        )
        reg = registry()
        root = reg.create_root("builtin", "builtin:EmptyObject", None)
        session.on_hidden_class_created(root)
        outgoing, _ = reg.transition(root, "x", "u.jsl:1:16:named_store")
        session.on_hidden_class_created(outgoing)
        site = feedback.site_by_key(load_key)
        assert session.classify_miss(site, outgoing) == MISS_HANDLER

    def test_unvalidated_class_classified_other(self):
        load_key = "u.jsl:1:11:named_load"
        _, feedback, _, session, _ = make_record_and_session(cd_sites=[load_key])
        reg = registry()
        stray = reg.create_root("builtin", "builtin:NotInRecord", None)
        site = feedback.site_by_key(load_key)
        assert session.classify_miss(site, stray) == MISS_OTHER

    def test_non_cd_site_classified_other(self):
        other_key = "u.jsl:1:16:named_store"
        _, feedback, _, session, _ = make_record_and_session(cd_sites=[])
        reg = registry()
        root = reg.create_root("builtin", "builtin:EmptyObject", None)
        session.on_hidden_class_created(root)
        site = feedback.site_by_key(other_key)
        assert session.classify_miss(site, root) == MISS_OTHER
