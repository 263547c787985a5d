"""Reusable Inline Caching — the paper's contribution.

Extraction (post-Initial-run analysis) builds an :class:`ICRecord`; a
:class:`ReuseSession` consumes it during a later execution, validating
hidden classes and preloading Dependent sites' ICVector slots.

Persistence is hardened (checksummed envelope, atomic writes, structural
validation, quarantine): see :mod:`repro.ric.serialize`,
:mod:`repro.ric.store`, and :mod:`repro.ric.validate`; all load-path
failures raise the single typed :class:`RecordFormatError`.
"""

from repro.ric.errors import CorruptRecord, RecordFormatError
from repro.ric.extraction import extract_icrecord, extract_per_script_records
from repro.ric.icrecord import DependentEntry, HCVTRow, ICRecord, ToastPair
from repro.ric.reuse import MultiReuseSession, ReuseSession
from repro.ric.store import RecordStore, RecordStoreProtocol
from repro.ric.serialize import (
    ICRECORD_FORMAT_VERSION,
    load_icrecord,
    payload_checksum,
    record_from_envelope,
    record_from_json,
    record_size_bytes,
    record_to_envelope,
    record_to_json,
    save_icrecord,
    try_load_icrecord,
)
from repro.ric.validate import check_record, validate_record

__all__ = [
    "CorruptRecord",
    "DependentEntry",
    "MultiReuseSession",
    "RecordFormatError",
    "RecordStore",
    "RecordStoreProtocol",
    "extract_per_script_records",
    "HCVTRow",
    "ICRECORD_FORMAT_VERSION",
    "ICRecord",
    "ReuseSession",
    "ToastPair",
    "check_record",
    "extract_icrecord",
    "load_icrecord",
    "payload_checksum",
    "record_from_envelope",
    "record_from_json",
    "record_size_bytes",
    "record_to_envelope",
    "record_to_json",
    "save_icrecord",
    "try_load_icrecord",
    "validate_record",
]
