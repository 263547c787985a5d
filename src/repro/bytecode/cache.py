"""Code cache: persist compiled bytecode across executions (paper §8.1).

V8 lets the host cache the bytecode result of parsing+compiling a script so
that re-executions skip the frontend entirely; both the paper's Conventional
and RIC configurations run on top of this.  Our cache keys
:class:`~repro.bytecode.code.CodeObject` trees by the script's filename and
a content hash, and can round-trip them through disk in one binary format
(see :func:`encode_code` and docs/INTERNALS.md, "Code cache").
"""

from __future__ import annotations

import hashlib
import logging
import marshal
import struct
import threading
from pathlib import Path

from repro.bytecode.code import CodeObject, FeedbackSlotInfo, SiteKind
from repro.lang.errors import SourcePosition

logger = logging.getLogger(__name__)

#: Bump when the serialized form changes; mismatching entries are ignored.
#: v5: the optimizer emits fused superinstructions, so cached streams
#: from earlier versions would execute unfused and skew dispatch counts.
#: v6: one marshal body with shared tuples behind a sha256 digest.
CACHE_FORMAT_VERSION = 6

#: File header: magic, format version, sha256 of the body.
_HEADER = struct.Struct("<4sH32s")
_MAGIC = b"JSLC"

#: marshal format 3+ writes an object seen twice as a back-reference,
#: which is what makes the interned tuples load shared.
_MARSHAL_VERSION = 4

_SITE_KINDS = tuple(SiteKind)
_SITE_KIND_INDEX = {kind: index for index, kind in enumerate(_SITE_KINDS)}

#: Types of one row's fields, in order (see :func:`_encode_rows`).
_ROW_TYPES = (str, str, list, int, int, str, list, list, list, list, list, list)


class CodeCacheError(Exception):
    """A code-cache entry that cannot be decoded; the caller treats it
    as a miss."""


def source_hash(source: str) -> str:
    """Content hash used to key and invalidate cache entries."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def _encode_rows(code: CodeObject) -> list:
    """The code tree in pre-order, one tuple per code object.

    A nested code constant becomes the int index of its row (the
    compiler emits only float and str constants otherwise).  Equal
    instruction and position tuples are interned across the tree, so
    marshal writes each distinct one once.
    """
    filename = code.filename
    rows: list = []
    shared = {}
    intern = shared.setdefault

    def visit(node: CodeObject) -> int:
        if node.filename != filename:
            raise ValueError(f"{node!r} is not from {filename!r}")
        if node.spec_table:
            raise ValueError(f"{node!r} is quickened; only generic code is cached")
        index = len(rows)
        rows.append(None)
        constants: list = []
        for constant in node.constants:
            if isinstance(constant, CodeObject):
                constants.append(visit(constant))
            elif type(constant) is float or type(constant) is str:
                constants.append(constant)
            else:
                raise TypeError(f"unserializable constant: {constant!r}")
        slots = []
        for slot in node.feedback_slots:
            position = slot.position
            if position.filename != filename:
                raise ValueError(f"{slot!r} is not from {filename!r}")
            slots.append(
                (_SITE_KIND_INDEX[slot.kind], position.line, position.column, slot.name)
            )
        # The default declaration key is rebuilt by CodeObject.__post_init__.
        default_key = f"{node.position}#{node.name}"
        rows[index] = (
            node.name,
            filename,
            list(node.params),
            node.position.line,
            node.position.column,
            "" if node.decl_key == default_key else node.decl_key,
            [intern(instruction, instruction) for instruction in node.instructions],
            [intern(position, position) for position in node.positions],
            constants,
            list(node.names),
            list(node.local_names),
            slots,
        )
        return index

    visit(code)
    return rows


def _decode_rows(rows: list) -> CodeObject:
    """Inverse of :func:`_encode_rows`: build the tree bottom-up."""
    if type(rows) is not list or not rows:
        raise CodeCacheError("body holds no code rows")
    kinds = _SITE_KINDS
    built: list = [None] * len(rows)
    for index in range(len(rows) - 1, -1, -1):
        row = rows[index]
        if type(row) is not tuple or tuple(map(type, row)) != _ROW_TYPES:
            raise CodeCacheError(f"row {index} has the wrong shape")
        (
            name,
            filename,
            params,
            line,
            column,
            decl_key,
            instructions,
            positions,
            constants,
            names,
            local_names,
            slots,
        ) = row
        for position, constant in enumerate(constants):
            if type(constant) is int:
                child = built[constant] if constant > index else None
                if child is None:
                    raise CodeCacheError(f"row {index} has a bad code reference")
                constants[position] = child
        built[index] = CodeObject(
            name=name,
            filename=filename,
            params=params,
            position=SourcePosition(filename, line, column),
            instructions=instructions,
            positions=positions,
            constants=constants,
            names=names,
            local_names=local_names,
            feedback_slots=[
                FeedbackSlotInfo(
                    kinds[kind], SourcePosition(filename, slot_line, slot_column), slot_name
                )
                for kind, slot_line, slot_column, slot_name in slots
            ],
            decl_key=decl_key,
        )
    return built[0]


def encode_code(key: str, code: CodeObject) -> bytes:
    """Serialize a compiled (unquickened) code tree into one entry.

    Layout: ``magic | version | sha256(body) | body`` where ``body`` is
    ``marshal.dumps((key, rows))``.
    """
    body = marshal.dumps((key, _encode_rows(code)), _MARSHAL_VERSION)
    return _HEADER.pack(_MAGIC, CACHE_FORMAT_VERSION, hashlib.sha256(body).digest()) + body


def decode_code(blob: bytes, key: str) -> CodeObject:
    """Inverse of :func:`encode_code`; raises :class:`CodeCacheError`
    on any damage, a format-version mismatch or an entry for another
    key."""
    if len(blob) < _HEADER.size:
        raise CodeCacheError("truncated header")
    magic, version, digest = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise CodeCacheError("not a code-cache entry")
    if version != CACHE_FORMAT_VERSION:
        raise CodeCacheError(f"format version {version}, expected {CACHE_FORMAT_VERSION}")
    body = memoryview(blob)[_HEADER.size:]
    if hashlib.sha256(body).digest() != digest:
        raise CodeCacheError("digest mismatch")
    try:
        stored_key, rows = marshal.loads(body)
    except (EOFError, ValueError, TypeError) as exc:
        raise CodeCacheError(f"unreadable body: {exc}") from exc
    if stored_key != key:
        raise CodeCacheError("entry is for another script")
    try:
        return _decode_rows(rows)
    except (IndexError, TypeError, ValueError) as exc:
        raise CodeCacheError(f"malformed rows: {exc}") from exc


class CodeCache:
    """In-memory code cache with optional disk persistence.

    The cache models the V8 host API: the embedder asks for a script's
    compiled form; on a hit the frontend is skipped.  ``hits``/``misses``
    are exposed so benchmarks can assert the Reuse run never re-compiles.
    A disk entry that fails to decode is a miss: the frontend recompiles
    and :meth:`store` overwrites it.

    Thread-safety contract: the cache is shared by every concurrent
    :class:`~repro.core.session.RunSession` of an engine, so lookups,
    insertions and the hit/miss counters are atomic under one lock.  The
    cached :class:`~repro.bytecode.code.CodeObject` trees themselves are
    immutable after the optimizer runs (the VM threads them into
    per-VM caches, never in place), so handing one instance to many
    sessions is safe.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self._entries: dict[str, CodeObject] = {}
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        if self._cache_dir is not None:
            self._cache_dir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _key(filename: str, source: str) -> str:
        return f"{filename}:{source_hash(source)}"

    def lookup(self, filename: str, source: str) -> CodeObject | None:
        """Return the cached code for (filename, source) or None."""
        key = self._key(filename, source)
        with self._lock:
            code = self._entries.get(key)
            if code is None and self._cache_dir is not None:
                code = self._load_from_disk(key)
                if code is not None:
                    self._entries[key] = code
            if code is None:
                self.misses += 1
                return None
            self.hits += 1
            return code

    def note_hit(self) -> None:
        """Count a frontend-skip served *above* this cache.

        The :class:`~repro.core.artifacts.ArtifactCache` satisfies warm
        requests without consulting the code cache at all; it reports them
        here so ``hits``/``misses`` keep meaning "runs that skipped the
        frontend" exactly as before the artifact layer existed.
        """
        with self._lock:
            self.hits += 1

    def store(self, filename: str, source: str, code: CodeObject) -> None:
        key = self._key(filename, source)
        with self._lock:
            self._entries[key] = code
            if self._cache_dir is not None:
                self._disk_path(key).write_bytes(encode_code(key, code))

    # -- disk persistence ----------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        assert self._cache_dir is not None
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
        return self._cache_dir / f"{digest}.jslcache"

    def _load_from_disk(self, key: str) -> CodeObject | None:
        path = self._disk_path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            logger.warning("ignoring unreadable code-cache entry %s: %s", path, exc)
            return None
        try:
            return decode_code(blob, key)
        except CodeCacheError as exc:
            logger.warning("ignoring damaged code-cache entry %s: %s", path, exc)
            return None
