"""ICRecord persistence: JSON serialization, disk round-trip, integrity.

The ICRecord is the artifact RIC persists between executions — unlike the
snapshot approach the paper compares against (§9), it is per-script, can be
shared between applications, and contains no heap state, so it stays valid
under nondeterministic initialization.

Because a *later* execution acts on this artifact, the on-disk form is a
hardened envelope around the payload::

    {"checksum":"<sha256 of canonical payload JSON>",
     "record":{"script_keys":[...],...,"version":5}}

Writers (:func:`envelope_text`) embed the canonical payload text itself,
so one serialization serves both the checksum and the file; readers
re-canonicalize whatever JSON they parse, so files in the older spaced
form load too.

* the **checksum** rejects truncation, bit-flips, and hand-edits;
* the **format version** (inside the payload, covered by the checksum)
  rejects records written by an incompatible engine;
* :func:`record_from_json` re-raises every structural surprise as one
  typed :class:`~repro.ric.errors.RecordFormatError`;
* loaded records additionally pass
  :func:`~repro.ric.validate.check_record` before being returned.

Writes go through :func:`~repro.ric.atomicio.atomic_write_text`, so a
crash mid-save leaves the previous record intact rather than a prefix of
the new one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.ric.atomicio import atomic_write_text
from repro.ric.errors import CorruptRecord, RecordFormatError
from repro.ric.icrecord import (
    FEEDBACK_ARITH,
    FEEDBACK_PROP_LOAD,
    FEEDBACK_PROP_STORE,
    DependentEntry,
    HCVTRow,
    ICRecord,
    SiteFeedback,
    SiteSlot,
    ToastPair,
)

#: Bump when the on-disk format changes.  v3: integrity envelope
#: (payload checksum) and structural validation on load.  v4: per-site
#: ordered slot sets (``site_slots``) — persisted polymorphic ICVector
#: state, ``site_key -> [[hcid, handler_id], ...]`` capped at POLY_LIMIT.
#: v5: per-site type feedback (``site_feedback``) — spent by the
#: quickening pass; v4 records (pre-feedback) are refused like any other
#: version mismatch and re-extracted.  The wire form is deduplicated and
#: compact (§7.3 bounds the record at <5% of the workload heap, and the
#: naive 6-tuple-per-site encoding blew that budget on reactlike):
#:
#: * monomorphic property feedback is *not* written at all when it is
#:   byte-for-byte derivable from ``site_slots`` + the handler table
#:   (exactly one persisted slot whose handler is a field load/store);
#:   :func:`derived_prop_feedback` reconstructs it on load;
#: * ``null`` marks a derivable site the extractor deliberately left
#:   without feedback (e.g. ``X.prototype = ...`` stores) so derivation
#:   must not resurrect it;
#: * everything else is a short list: ``[k]`` is a kind-``k`` tombstone,
#:   ``[0, op, types]`` an arith entry, ``[1|2, hcid, offset]`` a
#:   non-derivable property entry (kinds are small ints on the wire:
#:   0=arith, 1=prop_load, 2=prop_store).
ICRECORD_FORMAT_VERSION = 5

#: Wire encoding of feedback kinds (strings in memory, ints on disk).
_FEEDBACK_KIND_TO_WIRE = {
    FEEDBACK_ARITH: 0,
    FEEDBACK_PROP_LOAD: 1,
    FEEDBACK_PROP_STORE: 2,
}
_WIRE_TO_FEEDBACK_KIND = {v: k for k, v in _FEEDBACK_KIND_TO_WIRE.items()}

#: Handler kinds whose feedback is derivable, keyed by the site-key
#: suffix they must sit behind.  A direct-offset rewrite is only ever
#: justified by a plain field handler at a matching named site.
_DERIVABLE_HANDLERS = {
    "load_field": (":named_load", FEEDBACK_PROP_LOAD),
    "store_field": (":named_store", FEEDBACK_PROP_STORE),
}


def derived_prop_feedback(record: ICRecord) -> dict:
    """Feedback entries implied by ``site_slots`` + the handler table.

    A persistently-monomorphic named property site — exactly one
    persisted slot, backed by a plain field handler — carries the same
    ``(hcid, offset)`` pair in ``site_slots`` that its ``site_feedback``
    entry would repeat, so the entry is reconstructed here instead of
    serialized.  Sites with polymorphic slot sets, exotic handlers, or a
    handler/site-kind mismatch derive nothing.
    """
    derived = {}
    for site_key, slots in record.site_slots.items():
        if len(slots) != 1:
            continue
        slot = slots[0]
        if not 0 <= slot.handler_id < len(record.handlers):
            continue
        handler = record.handlers[slot.handler_id]
        if not isinstance(handler, dict):
            continue
        rule = _DERIVABLE_HANDLERS.get(handler.get("kind"))
        if rule is None or not site_key.endswith(rule[0]):
            continue
        offset = handler.get("offset")
        if not isinstance(offset, int):
            continue
        derived[site_key] = SiteFeedback(kind=rule[1], hcid=slot.hcid, offset=offset)
    return derived


def _feedback_to_wire(fb: SiteFeedback) -> list:
    """Compact wire form of one explicit (non-derivable) feedback entry."""
    kind = _FEEDBACK_KIND_TO_WIRE.get(fb.kind)
    if kind is None:
        # Unknown kind: keep the legacy self-describing 6-tuple so the
        # round trip stays lossless; validate_record is the wall that
        # rejects it, not the serializer.
        return [fb.kind, fb.op, fb.types, fb.hcid, fb.offset, fb.mega]
    if fb.mega:
        return [kind]
    if fb.kind == FEEDBACK_ARITH:
        return [kind, fb.op, fb.types]
    return [kind, fb.hcid, fb.offset]


def _feedback_from_wire(entry: list) -> SiteFeedback:
    """Inverse of :func:`_feedback_to_wire` (raises on malformed shapes)."""
    head = entry[0]
    if isinstance(head, str):
        kind, op, types, hcid, offset, mega = entry
        return SiteFeedback(
            kind=kind, op=op, types=types, hcid=hcid, offset=offset, mega=bool(mega)
        )
    kind = _WIRE_TO_FEEDBACK_KIND[head]
    if len(entry) == 1:
        return SiteFeedback(kind=kind, mega=True)
    if kind == FEEDBACK_ARITH:
        _, op, types = entry
        return SiteFeedback(kind=kind, op=op, types=types)
    _, hcid, offset = entry
    return SiteFeedback(kind=kind, hcid=hcid, offset=offset)


def record_to_json(record: ICRecord) -> dict:
    """Serialize an ICRecord to JSON-compatible plain data (the payload)."""
    derived = derived_prop_feedback(record)
    site_feedback = {
        key: _feedback_to_wire(fb)
        for key, fb in record.site_feedback.items()
        if derived.get(key) != fb
    }
    for key in derived:
        if key not in record.site_feedback:
            site_feedback[key] = None
    return {
        "version": ICRECORD_FORMAT_VERSION,
        "script_keys": record.script_keys,
        "hcvt": [
            {
                "hcid": row.hcid,
                "dependents": [
                    [entry.site_key, entry.handler_id] for entry in row.dependents
                ],
                "cd_dependent_sites": row.cd_dependent_sites,
            }
            for row in record.hcvt
        ],
        "toast": {
            key: [
                [pair.incoming_hcid, pair.transition_property, pair.outgoing_hcid]
                for pair in pairs
            ]
            for key, pairs in record.toast.items()
        },
        # Copied, not aliased: callers legitimately mutate payloads (fault
        # injectors, envelope extras) and must never reach back into the
        # live record through the serialized form.
        "handlers": [dict(handler) for handler in record.handlers],
        "site_slots": {
            site_key: [[slot.hcid, slot.handler_id] for slot in slots]
            for site_key, slots in record.site_slots.items()
        },
        "site_feedback": site_feedback,
        "extraction_time_ms": record.extraction_time_ms,
    }


def record_from_json(data: dict) -> ICRecord:
    """Inverse of :func:`record_to_json`.

    Any structural surprise — wrong version, missing key, wrong type,
    wrong arity — raises :class:`RecordFormatError`, never a bare
    ``KeyError``/``TypeError``, so callers have one exception to catch.
    """
    if not isinstance(data, dict):
        raise RecordFormatError(f"ICRecord payload must be a dict, got {type(data).__name__}")
    if data.get("version") != ICRECORD_FORMAT_VERSION:
        raise RecordFormatError(
            f"unsupported ICRecord version {data.get('version')!r} "
            f"(expected {ICRECORD_FORMAT_VERSION})"
        )
    try:
        record = ICRecord(script_keys=list(data["script_keys"]))
        record.hcvt = [
            HCVTRow(
                hcid=row["hcid"],
                dependents=[
                    DependentEntry(site_key=site_key, handler_id=handler_id)
                    for site_key, handler_id in row["dependents"]
                ],
                cd_dependent_sites=list(row["cd_dependent_sites"]),
            )
            for row in data["hcvt"]
        ]
        record.toast = {
            key: [
                ToastPair(
                    incoming_hcid=incoming,
                    transition_property=prop,
                    outgoing_hcid=outgoing,
                )
                for incoming, prop, outgoing in pairs
            ]
            for key, pairs in data["toast"].items()
        }
        record.handlers = [dict(handler) for handler in data["handlers"]]
        record.site_slots = {
            site_key: [
                SiteSlot(hcid=hcid, handler_id=handler_id)
                for hcid, handler_id in slots
            ]
            for site_key, slots in data["site_slots"].items()
        }
        site_feedback = derived_prop_feedback(record)
        for key, entry in data["site_feedback"].items():
            if entry is None:
                # Explicit suppression: derivable site the extractor
                # deliberately left without feedback (prototype stores).
                site_feedback.pop(key, None)
            else:
                site_feedback[key] = _feedback_from_wire(entry)
        record.site_feedback = site_feedback
        record.extraction_time_ms = float(data.get("extraction_time_ms", 0.0))
    except RecordFormatError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise RecordFormatError(
            f"malformed ICRecord payload: {type(exc).__name__}: {exc}"
        ) from exc
    return record


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON form of a record payload."""
    return _sha256(_canonical(payload))


def record_to_envelope(record: ICRecord, extra: dict | None = None) -> dict:
    """Wrap a record payload in the checksummed on-disk envelope.

    ``extra`` adds sibling fields (e.g. the store's ``"key"``) that live
    outside the checksum — they are addressing, not trusted content.
    """
    payload = record_to_json(record)
    envelope = dict(extra or {})
    envelope["checksum"] = payload_checksum(payload)
    envelope["record"] = payload
    return envelope


def envelope_text(record: ICRecord, key: str | None = None) -> str:
    """The on-disk envelope of a record as text, serialized in one pass.

    The canonical payload text is emitted once, hashed, and embedded
    verbatim, so the stored ``record`` is exactly the text the checksum
    covers: ``{"key":…,"checksum":"<sha256>","record":<canonical>}``
    (``key`` only when given).  It parses to the same envelope as
    :func:`record_to_envelope`.
    """
    canonical = _canonical(record_to_json(record))
    head = "{" if key is None else '{"key":' + json.dumps(key) + ","
    return f'{head}"checksum":"{_sha256(canonical)}","record":{canonical}}}'


def record_from_envelope(data: dict) -> ICRecord:
    """Verify and unwrap an on-disk envelope: checksum, version, structure.

    Raises :class:`RecordFormatError` on any integrity or format failure.
    """
    if not isinstance(data, dict):
        raise RecordFormatError(
            f"ICRecord envelope must be a dict, got {type(data).__name__}"
        )
    if "record" not in data or "checksum" not in data:
        raise RecordFormatError("ICRecord envelope missing 'record'/'checksum'")
    payload = data["record"]
    if not isinstance(payload, dict):
        raise RecordFormatError("ICRecord envelope 'record' must be a dict")
    expected = data["checksum"]
    actual = payload_checksum(payload)
    if expected != actual:
        raise RecordFormatError(
            f"ICRecord checksum mismatch (stored {str(expected)[:12]!r}..., "
            f"computed {actual[:12]!r}...)"
        )
    from repro.ric.validate import check_record

    return check_record(record_from_json(payload))


def record_size_bytes(record: ICRecord) -> int:
    """Serialized size — the paper §7.3 memory-overhead metric."""
    return len(json.dumps(record_to_json(record)).encode("utf-8"))


def save_icrecord(record: ICRecord, path: str | Path) -> None:
    """Persist an ICRecord to disk atomically (tmpfile + ``os.replace``)."""
    atomic_write_text(path, envelope_text(record))


def load_icrecord(path: str | Path) -> ICRecord:
    """Load a previously saved ICRecord, verifying integrity and structure.

    Raises :class:`RecordFormatError` for every corruption mode (bad JSON,
    bad checksum, wrong version, structural damage).  ``OSError`` still
    propagates for genuinely missing/unreadable files.
    """
    raw = Path(path).read_bytes()
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise RecordFormatError(f"ICRecord is not valid UTF-8: {exc}") from exc
    except ValueError as exc:
        raise RecordFormatError(f"ICRecord is not valid JSON: {exc}") from exc
    return record_from_envelope(data)


def try_load_icrecord(path: str | Path) -> "ICRecord | CorruptRecord":
    """Degrading load: a corrupt or unreadable record becomes a
    :class:`CorruptRecord` placeholder instead of raising.

    ``Engine.run`` accepts the placeholder and cold-starts that one
    record while the rest of the page still reuses.
    """
    try:
        return load_icrecord(path)
    except (OSError, RecordFormatError) as exc:
        return CorruptRecord(source=str(path), error=str(exc))
