"""The record store: per-script ICRecords kept across runs.

The paper contrasts RIC with snapshotting (§9): *"in RIC, the information
is maintained for each JavaScript file.  Therefore, the IC information for
a library can be shared by different applications."*  This module makes
that a first-class capability:

* :func:`~repro.ric.extraction.extract_per_script_records` splits a
  completed run's IC information into one self-contained
  :class:`~repro.ric.icrecord.ICRecord` per script file, each in its own
  record-local HCID space.
* :class:`RecordStore` holds per-script records keyed by (filename,
  source hash), with directory persistence — the browser-cache shape.
* At reuse time, the engine runs one
  :class:`~repro.ric.reuse.ReuseSession` per record simultaneously
  (see ``Engine.run`` accepting a sequence of records): each session
  validates in its own HCID namespace, so records extracted by different
  applications compose on one page.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import typing
from pathlib import Path

from repro.bytecode.cache import source_hash
from repro.ric.atomicio import atomic_write_text, file_lock
from repro.ric.errors import RecordFormatError
from repro.ric.icrecord import ICRecord
from repro.ric.serialize import envelope_text, record_from_envelope

logger = logging.getLogger(__name__)


@typing.runtime_checkable
class RecordStoreProtocol(typing.Protocol):
    """What the engine and CLIs require of a record store.

    Satisfied by the local :class:`RecordStore`, the fault-injecting
    :class:`~repro.faults.faulty_store.FaultyRecordStore`, and the
    daemon-backed :class:`~repro.server.client.RemoteRecordStore` — the
    store a run uses is a deployment decision, not a code path.
    """

    def put(self, filename: str, source: str, record: ICRecord) -> None: ...

    def get(self, filename: str, source: str) -> ICRecord | None: ...

    def records_for(self, scripts) -> list[ICRecord]: ...

    def status(self) -> dict: ...

    def __len__(self) -> int: ...


class RecordStore:
    """Per-script record cache keyed by (filename, source hash).

    Mirrors how a browser would persist RIC information next to its code
    cache: one entry per script, shared by every page that loads it.

    The on-disk directory is treated as hostile-until-verified: every
    entry carries a checksummed envelope (see :mod:`repro.ric.serialize`),
    writes are atomic and advisory-locked, and entries that fail
    integrity or structural validation are **quarantined** (renamed to
    ``*.corrupt``) and surfaced through :attr:`load_errors` rather than
    silently skipped — a store that quietly sheds entries looks identical
    to a store that never had them, which is exactly how corruption goes
    unnoticed in production.

    Thread-safety contract: one store may serve many concurrent sessions
    (the executor layer), so the entry map, size map and error list are
    guarded by a re-entrant lock.  Records handed out are shared —
    :class:`~repro.ric.reuse.ReuseSession` reads them strictly
    read-only, so no copy is needed.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        quarantine: bool = True,
    ):
        self._lock = threading.RLock()
        self._entries: dict[str, ICRecord] = {}
        #: Serialized payload bytes per key, for :meth:`status`.
        self._sizes: dict[str, int] = {}
        self._directory = Path(directory) if directory is not None else None
        self.quarantine = quarantine
        #: (filename, error message) for every on-disk entry that failed to
        #: load — the degradation signal tests and reporting consume.
        self.load_errors: list[tuple[str, str]] = []
        #: Quarantined files removed by :meth:`sweep_quarantine` over this
        #: store's lifetime.
        self.quarantine_swept = 0
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
            self._load_directory()

    @property
    def directory(self) -> "Path | None":
        """Backing directory, or ``None`` for a memory-only store."""
        return self._directory

    @staticmethod
    def _key(filename: str, source: str) -> str:
        return f"{filename}:{source_hash(source)}"

    def _lock_path(self) -> Path:
        assert self._directory is not None
        return self._directory / ".store.lock"

    def _path_for_key(self, key: str) -> Path:
        assert self._directory is not None
        return self._directory / f"{_safe(key)}.icrecord.json"

    def put(self, filename: str, source: str, record: ICRecord) -> None:
        self.put_by_key(self._key(filename, source), record)

    def put_by_key(self, key: str, record: ICRecord) -> None:
        """Insert under a precomputed ``filename:source_hash`` key.

        The daemon's write-through path: it only ever sees the hash, not
        the source text, so the plain :meth:`put` signature cannot apply.
        """
        text = envelope_text(record, key)
        with self._lock:
            self._entries[key] = record
            self._sizes[key] = len(text.encode("utf-8"))
            if self._directory is not None:
                with file_lock(self._lock_path(), exclusive=True):
                    atomic_write_text(self._path_for_key(key), text)

    def get(self, filename: str, source: str) -> ICRecord | None:
        with self._lock:
            return self._entries.get(self._key(filename, source))

    def get_by_key(self, key: str) -> ICRecord | None:
        with self._lock:
            return self._entries.get(key)

    def records_for(self, scripts) -> list[ICRecord]:
        """Records available for a (filename, source) script list."""
        found = []
        for filename, source in scripts:
            record = self.get(filename, source)
            if record is not None:
                found.append(record)
        return found

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def status(self) -> dict:
        """Operational summary: entry count, payload bytes, casualties.

        Consumed by ``ric-run --store-status`` and echoed by the daemon's
        ``STAT`` verb, so a local directory and a remote daemon answer
        the same question the same way.
        """
        quarantined = 0
        if self._directory is not None:
            quarantined = len(list(self._directory.glob("*.corrupt*")))
        with self._lock:
            return {
                "records": len(self._entries),
                "bytes": sum(self._sizes.values()),
                "quarantined": quarantined,
                "quarantine_swept": self.quarantine_swept,
                "load_errors": len(self.load_errors),
                "directory": str(self._directory) if self._directory else None,
            }

    def clear(self) -> int:
        """Drop every entry, in memory and on disk; returns how many died.

        The epoch-invalidation primitive (INTERNALS §12): when the fleet
        epoch bumps, records extracted from the old source must die
        everywhere, including the write-through directory that would
        otherwise resurrect them after a daemon restart.  Quarantined
        ``*.corrupt`` files are left for post-mortem (they were never
        servable anyway)."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._sizes.clear()
            if self._directory is not None:
                with file_lock(self._lock_path(), exclusive=True):
                    for path in self._directory.glob("*.icrecord.json"):
                        try:
                            path.unlink()
                        except OSError:  # pragma: no cover - raced removal
                            pass
        return count

    def sweep_quarantine(
        self,
        max_age_s: float | None = None,
        max_count: int | None = None,
    ) -> dict:
        """Prune quarantined ``*.corrupt*`` entries.

        Quarantine preserves corrupt entries for post-mortem, but a store
        that is corrupted repeatedly (flaky disk, crashing writer) will
        otherwise accumulate them without bound.  The sweep deletes
        entries older than ``max_age_s`` and, if more than ``max_count``
        remain, the oldest of those; ``None`` disables a criterion, and
        all-``None`` sweeps nothing (status-quo safe).  Returns a
        ``{"swept": n, "kept": m}`` summary; memory-only stores have no
        quarantine and report zeros.
        """
        if self._directory is None:
            return {"swept": 0, "kept": 0}
        import time

        now = time.time()
        aged: list[tuple[float, Path]] = []
        for path in self._directory.glob("*.corrupt*"):
            try:
                aged.append((path.stat().st_mtime, path))
            except OSError:  # pragma: no cover - raced removal
                pass
        aged.sort()  # oldest first
        doomed: list[Path] = []
        if max_age_s is not None:
            cutoff = now - max_age_s
            while aged and aged[0][0] < cutoff:
                doomed.append(aged.pop(0)[1])
        if max_count is not None and len(aged) > max_count:
            excess = len(aged) - max_count
            doomed.extend(path for _, path in aged[:excess])
            del aged[:excess]
        swept = 0
        for path in doomed:
            try:
                path.unlink()
                swept += 1
            except OSError:  # pragma: no cover - raced removal
                pass
        with self._lock:
            self.quarantine_swept += swept
        return {"swept": swept, "kept": len(aged)}

    def _load_directory(self) -> None:
        assert self._directory is not None
        with file_lock(self._lock_path(), exclusive=False):
            paths = sorted(self._directory.glob("*.icrecord.json"))
        for path in paths:
            try:
                payload = json.loads(path.read_text())
                if not isinstance(payload, dict) or not isinstance(
                    payload.get("key"), str
                ):
                    raise RecordFormatError("store entry missing string 'key'")
                self._entries[payload["key"]] = record_from_envelope(payload)
                self._sizes[payload["key"]] = path.stat().st_size
            except (OSError, ValueError) as exc:
                self.load_errors.append((path.name, str(exc)))
                logger.warning("skipping corrupt record %s: %s", path.name, exc)
                if self.quarantine:
                    self._quarantine(path)

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry aside as ``*.corrupt`` so it stops matching the
        store glob but stays available for post-mortem inspection."""
        target = path.with_name(path.name + ".corrupt")
        serial = 0
        while target.exists():
            serial += 1
            target = path.with_name(f"{path.name}.corrupt.{serial}")
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - raced by another process
            pass


def _safe(key: str) -> str:
    import hashlib

    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
