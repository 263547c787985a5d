"""RIC Reuse-execution machinery (paper §5.2.2).

A :class:`ReuseSession` is attached to a fresh execution before builtins are
installed.  It observes every hidden-class creation of the run:

* builtin / constructor hidden classes are validated immediately on
  creation (their construction is deterministic — paper §4);
* a hidden class created by a transitioning site is validated iff its
  TOAST entry matches: same creation key, same transition property, and an
  *incoming* hidden class that is itself validated and whose current
  address matches the one recorded when it was validated earlier this run.

Validation of hidden class ``h`` preloads the ICVector slots of all of
``h``'s Dependent sites with (``h``'s address, saved handler) — averting
the IC miss each of those sites would otherwise take.  If validation fails
(the Reuse run diverged from the Initial run, Figure 7(e)), nothing is
preloaded and execution proceeds correctly, just without the speedup.
"""

from __future__ import annotations

from repro.bytecode.code import FeedbackSlotInfo, SiteKind
from repro.core.config import RICConfig
from repro.ic.handlers import Handler, deserialize_handler
from repro.ic.icvector import POLY_LIMIT, FeedbackState, ICSite, ICState
from repro.interpreter import cost_model as cost
from repro.ric.icrecord import ICRecord, filename_of_creation_key
from repro.runtime.hidden_class import ARRAY_ROOT_KEY, HiddenClass
from repro.stats.counters import CATEGORY_RIC, MISS_HANDLER, MISS_OTHER, Counters


#: The site kind each field handler serves.
_FIELD_HANDLER_SITES = {
    "load_field": SiteKind.NAMED_LOAD,
    "store_field": SiteKind.NAMED_STORE,
}


def handler_fits(info: FeedbackSlotInfo, hc: HiddenClass, handler: Handler) -> bool:
    """Whether a record's handler may serve ``info``'s site on ``hc``.

    Validation proves a hidden class has the recorded layout; this proves
    the handler reads what the site asks for on that layout.  Only named
    sites take preloads: a field handler needs the site's property at its
    offset, and an array-length load needs an array shape.
    """
    if handler.kind == "load_array_length":
        return (
            info.kind is SiteKind.NAMED_LOAD
            and info.name == "length"
            and _is_array_shape(hc)
        )
    return (
        info.kind is _FIELD_HANDLER_SITES.get(handler.kind)
        and hc.layout.get(info.name) == handler.offset
    )


def _is_array_shape(hc: HiddenClass) -> bool:
    """Whether ``hc`` descends from the array root (arrays only)."""
    while hc.incoming is not None:
        hc = hc.incoming
    return hc.creation_key == ARRAY_ROOT_KEY


class ReuseSession:
    """Per-Reuse-execution RIC state: the runtime HCVT columns.

    The paper's HCVT has per-run fields (``HCAddr``, the ``V`` bit) next to
    the persisted ones; here the persisted part is the read-only
    :class:`~repro.ric.icrecord.ICRecord` and the per-run part lives in
    this session.
    """

    __slots__ = (
        "tracer",
        "record",
        "feedback",
        "counters",
        "config",
        "_valid_files",
        "address_by_hcid",
        "hcid_by_address",
        "validated",
        "_handler_cache",
        "_cd_sites_by_hcid",
        "_slot_plan",
    )

    def __init__(
        self,
        record: ICRecord,
        feedback: FeedbackState,
        counters: Counters,
        config: RICConfig | None = None,
        tracer=None,
        trusted_script_keys: "set[str] | None" = None,
    ):
        self.tracer = tracer
        self.record = record
        self.feedback = feedback
        self.counters = counters
        self.config = config or RICConfig()
        # Content-identity gate: a record's file-bound information (site
        # transitions, constructor classes, dependents) is only valid for
        # files whose *content* matches the one the record was extracted
        # from — same discipline as the bytecode cache.  Source positions
        # alone are not identity: two different scripts can share a
        # filename and coincidentally aligned positions, and preloading
        # across them would read wrong slots (caught by the program
        # fuzzer).  ``trusted_script_keys`` holds this run's
        # "filename:source-hash" keys; None (unit-test construction)
        # trusts everything.
        if trusted_script_keys is None:
            self._valid_files: "set[str] | None" = None
        else:
            self._valid_files = {
                key.split(":", 1)[0]
                for key in record.script_keys
                if key in trusted_script_keys
            }
        #: hcid -> address of the validated hidden class this run (HCAddr).
        self.address_by_hcid: dict[int, int] = {}
        #: address -> hcid, for miss classification.
        self.hcid_by_address: dict[int, int] = {}
        #: The V bits.
        self.validated: set[int] = set()
        #: Materialized handlers, by handler_id (lazy).
        self._handler_cache: dict[int, Handler] = {}
        #: cd_dependent site keys per hcid, for Table 4 "Handler" attribution.
        self._cd_sites_by_hcid = {
            row.hcid: set(row.cd_dependent_sites)
            for row in record.hcvt
            if row.cd_dependent_sites
        }
        #: Recorded probe order per site (format v4 ``site_slots``):
        #: site_key -> {hcid: position}.  As a polymorphic site's slots
        #: preload one hidden class at a time (in whatever order this
        #: run happens to validate them), :meth:`_preload` re-sorts the
        #: preloaded slots to this recorded order, so a warmed site
        #: starts probing hottest-shape-first exactly as the Initial run
        #: left it.  Slot order never affects results or counters (the
        #: probe charge is flat) — only which compare hits first.
        self._slot_plan: dict[str, dict[int, int]] = {
            site_key: {
                slot.hcid: position for position, slot in enumerate(slots)
            }
            for site_key, slots in record.site_slots.items()
        }

    # -- hook wired into HiddenClassRegistry.on_created ------------------------

    def on_hidden_class_created(self, hc: HiddenClass) -> None:
        """Validate (or not) a hidden class the Reuse run just created."""
        counters = self.counters
        counters.ric_toast_lookups += 1
        counters.charge(CATEGORY_RIC, cost.RIC_TOAST_LOOKUP)

        if not self.config.validate:
            self._naive_match(hc)
            return

        if not self._file_trusted(hc.creation_key):
            return
        pairs = self.record.toast.get(hc.creation_key)
        if pairs is not None:
            self._match(hc, pairs)

    def _match(self, hc: HiddenClass, pairs: list) -> None:
        """Validate ``hc`` against its TOAST entry (the lookup is charged)."""
        if hc.creation_kind in ("builtin", "ctor"):
            for pair in pairs:
                if pair.incoming_hcid is None:
                    self._validate(pair.outgoing_hcid, hc)
                    return
            return
        incoming = hc.incoming
        if incoming is None:  # pragma: no cover - site transitions always have one
            return
        counters = self.counters
        for pair in pairs:
            if pair.transition_property != hc.transition_property:
                continue
            if pair.incoming_hcid is None:
                continue
            counters.charge(CATEGORY_RIC, cost.RIC_VALIDATE)
            if (
                pair.incoming_hcid in self.validated
                and self.address_by_hcid.get(pair.incoming_hcid) == incoming.address
            ):
                self._validate(pair.outgoing_hcid, hc)
                return
        counters.ric_divergences += 1
        self._emit_divergence(hc.creation_key, hc.index)

    def _emit_divergence(self, site_key: str, hc_index: int) -> None:
        if self.tracer is not None:
            from repro.stats.tracing import RIC_DIVERGENCE

            self.tracer.emit(RIC_DIVERGENCE, site_key=site_key, hc_index=hc_index)

    def _file_trusted(self, key: str) -> bool:
        """Whether file-bound record information for ``key`` may be used."""
        if self._valid_files is None:
            return True
        owner = filename_of_creation_key(key)
        return owner is None or owner in self._valid_files

    def _naive_match(self, hc: HiddenClass) -> None:
        """The unsound ablation: trust creation order, skip validation."""
        if hc.index < len(self.record.hcvt):
            self._validate(hc.index, hc)

    def _validate(self, hcid: int, hc: HiddenClass) -> None:
        counters = self.counters
        counters.ric_validations += 1
        counters.charge(CATEGORY_RIC, cost.RIC_VALIDATE)
        if self.tracer is not None:
            from repro.stats.tracing import RIC_VALIDATED

            self.tracer.emit(
                RIC_VALIDATED, hc_index=hc.index, detail=f"hcid={hcid}"
            )
        self.validated.add(hcid)
        self.address_by_hcid[hcid] = hc.address
        self.hcid_by_address[hc.address] = hcid
        if not self.config.enable_linking:
            return
        row = self.record.hcvt[hcid]
        for dependent in row.dependents:
            if not self._file_trusted(dependent.site_key):
                continue  # dependent belongs to a changed/unknown script
            site = self.feedback.site_by_key(dependent.site_key)
            if site is None:
                continue  # site's script not loaded in this run
            self._preload(site, hc, dependent.handler_id)

    def _preload(self, site: ICSite, hc: HiddenClass, handler_id: int) -> None:
        """Fill one Dependent site's ICVector slot (the paper's key step).

        Polymorphic slot sets preload in full: each validated hidden
        class fills its own slot, one install per Dependent link, up to
        all ``POLY_LIMIT`` slots of a POLY site.  The capacity guard
        below only refuses installs *beyond* the limit — a preload must
        never be the install that dumps a site to MEGA (that would make
        record reuse degrade a site the Reuse run might have kept
        polymorphic).  Megamorphic sites likewise stay untouched: the
        record stores no slots for them and they re-learn through the
        stub cache.  A handler that does not fit the validated class
        (:func:`handler_fits`) is refused.
        """
        if site.state is ICState.MEGAMORPHIC or len(site.slots) >= POLY_LIMIT:
            return
        if site.lookup(hc) is not None:
            return
        handler = self._materialize_handler(handler_id)
        if self.config.validate and not handler_fits(site.info, hc, handler):
            # A well-formed but wrong record (validate_record checks
            # handler kinds, not what they read): installing it would
            # make the site read another property.  The site stays
            # cold and learns the right handler on its first miss.  The
            # validate=False ablation stays unguarded: it is the naive
            # scheme whose wrong reads it exists to show.
            self.counters.ric_preloads_refused += 1
            self._emit_divergence(site.info.site_key, hc.index)
            return
        self.counters.charge(CATEGORY_RIC, cost.RIC_PRELOAD_SLOT)
        if not self.config.enable_handler_reuse:
            # Ablation: linking without handler reuse — the slot is still
            # preloaded but the handler must be regenerated, paying the
            # generation cost the full design avoids.
            self.counters.charge(CATEGORY_RIC, cost.HANDLER_GENERATE)
        before = site.state
        site.install(hc, handler, preloaded=True)
        if site.state is ICState.POLYMORPHIC and before is not ICState.POLYMORPHIC:
            self.counters.ic_poly_transitions += 1
        self.counters.ric_preloads += 1
        self._apply_slot_plan(site)
        if self.tracer is not None:
            from repro.stats.tracing import RIC_PRELOADED

            self.tracer.emit(
                RIC_PRELOADED,
                site_key=site.info.site_key,
                hc_index=hc.index,
                detail=handler.describe(),
            )

    def _apply_slot_plan(self, site: ICSite) -> None:
        """Restore the recorded probe order on a fully-preloaded site.

        Only applied while *every* slot is a preload: once the run
        installs anything organically, MRU reordering owns the site and
        imposing extraction-time order would fight it.
        """
        plan = self._slot_plan.get(site.info.site_key)
        slots = site.slots
        if plan is None or len(slots) < 2:
            return
        preloaded = site.preloaded_addresses
        if any(entry[0].address not in preloaded for entry in slots):
            return
        hcid_of = self.hcid_by_address
        slots.sort(
            key=lambda entry: plan.get(
                hcid_of.get(entry[0].address, -1), POLY_LIMIT
            )
        )

    def _materialize_handler(self, handler_id: int) -> Handler:
        handler = self._handler_cache.get(handler_id)
        if handler is None:
            handler = deserialize_handler(self.record.handlers[handler_id])
            self._handler_cache[handler_id] = handler
        return handler

    # -- miss attribution (Table 4) ------------------------------------------------

    def classify_miss(self, site: ICSite, hc: HiddenClass) -> str:
        """Attribute a named-site Reuse miss to Handler or Other.

        "Handler": the Initial run saw this (site, hidden class) pair but
        its handler was context-dependent, so RIC could not preload it.
        Everything else — triggering sites, divergence, first-seen classes,
        megamorphic sites — is "Other".  (Global misses are classified at
        the IC layer before reaching here.)
        """
        hcid = self.hcid_by_address.get(hc.address)
        if hcid is not None and hcid in self.validated:
            cd_sites = self._cd_sites_by_hcid.get(hcid)
            if cd_sites and site.info.site_key in cd_sites:
                return MISS_HANDLER
        return MISS_OTHER


class MultiReuseSession:
    """Several per-script ReuseSessions acting as one (see
    :mod:`repro.ric.store`).

    Each underlying session owns its record's local HCID namespace and its
    own validation table.  This is how per-file records extracted by
    *different applications* compose on a single page load.

    Every hidden-class creation is offered to every session: each pays
    its TOAST lookup.  Only a session whose record lists the creation key
    (for a trusted file) can do more than look, so the lookups are charged
    in one add and only those sessions run the matching step, in session
    order.  Miss classification likewise asks only the sessions whose
    records list the site as context-dependent.  All sessions share one
    :class:`Counters` and one config (the engine builds them that way).
    """

    __slots__ = ("sessions", "counters", "_toast_index", "_cd_index")

    def __init__(self, sessions: list[ReuseSession]):
        self.sessions = sessions
        self.counters = sessions[0].counters
        #: creation key -> (session, its TOAST pairs) for every session
        #: that may match it; None under the ``validate=False`` ablation,
        #: which matches by creation index and so needs every session.
        self._toast_index: "dict[str, list[tuple[ReuseSession, list]]] | None" = None
        if sessions[0].config.validate:
            self._toast_index = {}
            for session in sessions:
                for key, pairs in session.record.toast.items():
                    if session._file_trusted(key):
                        self._toast_index.setdefault(key, []).append((session, pairs))
        #: site key -> sessions listing it in some row's cd_dependent_sites.
        self._cd_index: dict[str, list[ReuseSession]] = {}
        for session in sessions:
            for key in set().union(*session._cd_sites_by_hcid.values()):
                self._cd_index.setdefault(key, []).append(session)

    def on_hidden_class_created(self, hc: HiddenClass) -> None:
        if self._toast_index is None:
            for session in self.sessions:
                session.on_hidden_class_created(hc)
            return
        count = len(self.sessions)
        self.counters.ric_toast_lookups += count
        self.counters.charge(CATEGORY_RIC, cost.RIC_TOAST_LOOKUP * count)
        for session, pairs in self._toast_index.get(hc.creation_key, ()):
            session._match(hc, pairs)

    def classify_miss(self, site: ICSite, hc: HiddenClass) -> str:
        for session in self._cd_index.get(site.info.site_key, ()):
            if session.classify_miss(site, hc) == MISS_HANDLER:
                return MISS_HANDLER
        return MISS_OTHER
