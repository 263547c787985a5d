"""RIC extraction phase (paper §5.2.1).

Runs off-line after an Initial execution completes.  It walks two data
sources:

1. the :class:`~repro.runtime.hidden_class.HiddenClassRegistry` — every
   hidden class of the run, in creation order, with its creator (builtin
   name, constructor key, or triggering site) — to build the TOAST and
   assign HCIDs; and
2. the final :class:`~repro.ic.icvector.FeedbackState` (the ICVectors) — to
   find, for each hidden class, the sites that encountered it and the
   handlers they used, which become the HCVT's Dependent lists.

One walk (:func:`_build_record`) serves both record shapes:

* :func:`extract_icrecord` — one whole-run record.  Every hidden class
  keeps a row under its creation index as HCID (the ``validate=False``
  ablation matches rows by creation index).
* :func:`extract_per_script_records` — one self-contained record per
  script file, because *"in RIC, the information is maintained for each
  JavaScript file"* and can be shared by applications (§9).  A file's
  record covers the builtins (shared), the file's own classes and native
  transitions off covered classes, renumbered densely into a record-local
  HCID space (global creation indices are an artifact of one page's load
  order and would not transfer).  It keeps only Dependent sites and
  arithmetic feedback inside the same file: cross-file links are dropped,
  a sound and conservative choice.

Global-object state is excluded (paper §6), as are thrown-error and
dictionary-mode classes.  A TOAST signature — (creation key, incoming
class, property) — that produced more than one hidden class in the run
cannot identify its transition, so it is dropped from the TOAST; nothing
else changes.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from repro.bytecode.code import FeedbackSlotInfo, SiteKind
from repro.core.config import RICConfig
from repro.ic.handlers import (
    LoadFieldHandler,
    StoreFieldHandler,
    StoreTransitionHandler,
)
from repro.ic.icvector import FeedbackState, ICSite, ICState
from repro.ric.icrecord import (
    FEEDBACK_PROP_LOAD,
    FEEDBACK_PROP_STORE,
    DependentEntry,
    HCVTRow,
    ICRecord,
    SiteFeedback,
    SiteSlot,
    ToastPair,
    filename_of_creation_key,
)
from repro.runtime.context import Runtime
from repro.runtime.hidden_class import HiddenClass
from repro.specialize.feedback import collect_arith_feedback, demotion_tombstones

#: Creation-key prefixes that are never reusable across executions.
_EXCLUDED_KEY_PREFIXES = ("builtin:thrown:", "builtin:Dictionary")

_NAMED_KINDS = (SiteKind.NAMED_LOAD, SiteKind.NAMED_STORE)


def extract_icrecord(
    runtime: Runtime,
    feedback: FeedbackState,
    config: RICConfig | None = None,
    script_keys: list[str] | None = None,
) -> ICRecord:
    """Build one whole-run :class:`ICRecord` from a completed Initial run."""
    start = time.perf_counter()
    classes = runtime.hidden_classes.all_classes
    covered = _eligible_classes(classes, feedback, config or RICConfig())
    record = _build_record(
        list(script_keys or []),
        covered,
        {hc.index: hc.index for hc in covered},
        len(classes),
        [site for site in feedback.all_sites() if site.info.kind in _NAMED_KINDS],
        feedback,
    )
    record.extraction_time_ms = (time.perf_counter() - start) * 1000.0
    return record


def extract_per_script_records(
    runtime: Runtime,
    feedback: FeedbackState,
    config: RICConfig | None = None,
) -> dict[str, ICRecord]:
    """Split a completed run's IC information into per-file records."""
    classes = runtime.hidden_classes.all_classes
    owners = [filename_of_creation_key(hc.creation_key) for hc in classes]
    eligible = [
        (hc, owners[hc.index], hc.creation_key.startswith("native:"))
        for hc in _eligible_classes(classes, feedback, config or RICConfig())
    ]
    sites_by_file: dict[str, list[ICSite]] = {}
    for site in feedback.all_sites():
        if site.info.kind in _NAMED_KINDS:
            sites_by_file.setdefault(site.info.position.filename, []).append(site)

    records: dict[str, ICRecord] = {}
    for filename in sorted({owner for owner in owners if owner is not None}):
        # One forward pass in creation order: a class's incoming class is
        # always created before it, so its coverage is already settled.
        covered: list[HiddenClass] = []
        local_id: dict[int, int] = {}
        for hc, owner, native in eligible:
            if (
                owner == filename
                or (owner is None and not native)  # builtin
                or (
                    native
                    and hc.incoming is not None
                    and hc.incoming.index in local_id
                )
            ):
                local_id[hc.index] = len(covered)
                covered.append(hc)
        records[filename] = _build_record(
            [filename],
            covered,
            local_id,
            len(covered),
            sites_by_file.get(filename, []),
            feedback,
            filename=filename,
        )
    return records


def _eligible_classes(
    classes: list[HiddenClass], feedback: FeedbackState, config: RICConfig
) -> list[HiddenClass]:
    """The run's classes, in creation order, that a record may cover."""
    excluded: set[str] = set()
    if not config.include_global_ics:
        excluded.add("builtin:global")
        excluded.update(
            site.info.site_key
            for site in feedback.all_sites()
            if site.info.kind in (SiteKind.GLOBAL_LOAD, SiteKind.GLOBAL_STORE)
        )
    return [
        hc
        for hc in classes
        if not hc.creation_key.startswith(_EXCLUDED_KEY_PREFIXES)
        and hc.creation_key not in excluded
    ]


def _build_record(
    script_keys: list[str],
    covered: list[HiddenClass],
    local_id: dict[int, int],
    rows: int,
    sites: list[ICSite],
    feedback: FeedbackState,
    filename: str | None = None,
) -> ICRecord:
    """The extraction walk: TOAST over ``covered`` (creation order),
    HCVT Dependents from the named ``sites``, then site feedback.

    ``local_id`` maps a covered class's creation index to its HCID in
    this record; ``rows`` is the HCVT length.  ``filename`` restricts
    arithmetic feedback and demotion tombstones to one file.
    """
    record = ICRecord(script_keys=script_keys)
    record.hcvt = [HCVTRow(hcid=hcid) for hcid in range(rows)]

    # ---- TOAST -------------------------------------------------------------
    pairs_by_key: dict[str, list[ToastPair]] = {}
    for hc in covered:
        if hc.creation_kind in ("builtin", "ctor"):
            pair = ToastPair(None, None, local_id[hc.index])
        else:
            assert hc.incoming is not None
            incoming = local_id.get(hc.incoming.index)
            if incoming is None:
                continue  # incoming outside this record: unlinkable
            pair = ToastPair(incoming, hc.transition_property, local_id[hc.index])
        pairs_by_key.setdefault(hc.creation_key, []).append(pair)

    for key, pairs in pairs_by_key.items():
        signatures = Counter(
            (pair.incoming_hcid, pair.transition_property) for pair in pairs
        )
        kept = [
            pair
            for pair in pairs
            if signatures[pair.incoming_hcid, pair.transition_property] == 1
        ]
        if kept:
            record.toast[key] = kept

    # ---- HCVT dependents (scan the ICVectors) ------------------------------
    handler_ids: dict[str, int] = {}

    def intern_handler(serialized: dict) -> int:
        text = json.dumps(serialized, sort_keys=True)
        handler_id = handler_ids.get(text)
        if handler_id is None:
            handler_id = len(record.handlers)
            handler_ids[text] = handler_id
            record.handlers.append(serialized)
        return handler_id

    # Keyed + global sites are not linked (paper §6).
    for site in sites:
        site_key = site.info.site_key
        # site.slots is in final probe (MRU) order; persist it in that
        # order so a Reuse run's warmed site probes hottest-shape-first
        # (record.site_slots, format v4).  Megamorphic sites hold no
        # slots and thus persist nothing — they re-learn, by design.
        # Shapes outside this record drop out: a per-file record persists
        # the polymorphic degree that file can re-validate on its own.
        slot_entries: list[SiteSlot] = []
        for hc, handler in site.slots:
            hcid = local_id.get(hc.index)
            if hcid is None:
                continue
            row = record.hcvt[hcid]
            if handler.is_context_independent:
                serialized = handler.serialize()
                assert serialized is not None
                handler_id = intern_handler(serialized)
                row.dependents.append(DependentEntry(site_key, handler_id))
                slot_entries.append(SiteSlot(hcid, handler_id))
            elif not isinstance(handler, StoreTransitionHandler):
                # Context-dependent non-transitioning handler: RIC cannot
                # preload this site, and its Reuse miss is attributed to the
                # "Handler" bucket of Table 4.  Transitioning stores are the
                # Triggering sites themselves ("Other" by construction).
                row.cd_dependent_sites.append(site_key)
        if slot_entries:
            record.site_slots[site_key] = slot_entries
        feedback_entry = prop_site_feedback(site, slot_entries)
        if feedback_entry is not None:
            record.site_feedback[site_key] = feedback_entry

    # ---- site_feedback (v5): arithmetic profiles + demotions ---------------
    # Property entries were emitted site-by-site above; arithmetic masks
    # come from the ICVectors' recorder lists, and sites whose typed
    # guard failed during this run override everything with a tombstone.
    record.site_feedback.update(collect_arith_feedback(feedback, filename=filename))
    for key, tombstone in demotion_tombstones(
        feedback.demoted_sites, filename=filename
    ):
        record.site_feedback[key] = tombstone
    return record


def prop_site_feedback(
    site: ICSite, slot_entries: list[SiteSlot]
) -> "SiteFeedback | None":
    """The ``site_feedback`` entry one named load/store site deserves.

    Persistently monomorphic sites whose single handler is a plain field
    access become positive entries — ``hcid`` is taken from the already
    record-local ``slot_entries``, so it is remapped exactly like
    ``site_slots``.  Megamorphic sites become tombstones (the site
    thrashed; quickening it would guarantee deopts).  Polymorphic, uninitialized, excluded-class and
    exotic-handler sites yield nothing: they are not specializable, but
    not proven hostile either.  Stores to ``prototype`` are never
    specialized (the typed store skips constructor-cache invalidation).
    """
    info: FeedbackSlotInfo = site.info
    kind = (
        FEEDBACK_PROP_LOAD
        if info.kind is SiteKind.NAMED_LOAD
        else FEEDBACK_PROP_STORE
    )
    if site.state is ICState.MEGAMORPHIC:
        return SiteFeedback(kind=kind, mega=True)
    if (
        site.state is ICState.MONOMORPHIC
        and len(slot_entries) == 1
        and len(site.slots) == 1
    ):
        handler = site.slots[0][1]
        wanted = (
            LoadFieldHandler
            if info.kind is SiteKind.NAMED_LOAD
            else StoreFieldHandler
        )
        if isinstance(handler, wanted) and not (
            info.kind is SiteKind.NAMED_STORE and info.name == "prototype"
        ):
            return SiteFeedback(
                kind=kind,
                hcid=slot_entries[0].hcid,
                offset=handler.offset,
            )
    return None
