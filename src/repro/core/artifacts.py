"""The artifact layer: immutable, thread-shareable script artifacts.

The paper's central claim is that warmed IC state is a reusable
*artifact*, separable from any particular run's mutable context.  This
module makes that separation structural.  A :class:`ScriptArtifact`
bundles everything about one script that is identical across runs — the
source identity (content hash), the compiled
:class:`~repro.bytecode.code.CodeObject` tree, and (optionally) the
ICRecord fetched from a record store — into one frozen object that any
number of concurrent :class:`~repro.core.session.RunSession` instances
may consume simultaneously.  Nothing in an artifact is ever mutated
after publication: the compiler and optimizer finish before the artifact
is constructed, the VM threads bytecode into *per-VM* caches rather than
in place, and :class:`~repro.ric.reuse.ReuseSession` reads records
strictly read-only.

:class:`ArtifactCache` is the shared, thread-safe home of artifacts with
**single-flight** builds: when N sessions cold-start the same source
concurrently, exactly one thread compiles (and performs at most one
record-store GET); the other N-1 block until the artifact is published
and then share it.  Joiners of a failed build re-raise the builder's
exception, and the in-flight entry is dropped so a later call retries.

Counter compatibility: the pre-artifact engine consulted the
:class:`~repro.bytecode.cache.CodeCache` once per script per run, so
``code_cache.hits``/``misses`` meant "runs that skipped / did not skip
the frontend".  The artifact cache preserves that meaning — a warm
artifact hit calls :meth:`CodeCache.note_hit` instead of doing a
redundant lookup, and a build delegates the real lookup (and its hit or
miss count) to the cache.  Each ``get_or_build`` therefore contributes
exactly one count, and reports which one via its ``frontend_skipped``
return flag so sessions can keep per-run ``bytecode_cache_*`` counters
without reading racy global deltas.
"""

from __future__ import annotations

import threading
import typing
from dataclasses import dataclass, field

from repro.bytecode.cache import CodeCache, source_hash
from repro.bytecode.code import CodeObject
from repro.bytecode.compiler import compile_source

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.ric.icrecord import ICRecord


@dataclass(frozen=True)
class ScriptArtifact:
    """Everything run-invariant about one script, shareable across threads.

    Immutable by construction; the ``code`` tree and ``record`` it points
    at are never mutated after publication (see module docstring), so one
    instance may back any number of concurrent sessions.
    """

    filename: str
    source: str
    source_hash: str
    #: ``filename:source_hash`` — the identity used by the code cache,
    #: the record store, and record trust checks alike.
    key: str
    code: CodeObject
    #: Record fetched from the record store at build time, if any.  A
    #: pinned record is a *candidate*: sessions still run admission
    #: (structural validation) per run, exactly like an explicitly
    #: passed record.
    record: "ICRecord | None" = None
    #: Whether a store fetch was attempted (distinguishes "no record
    #: exists" from "never asked").
    record_fetched: bool = False
    #: When ``code`` is a quickened clone (built against a trusted
    #: record's ``site_feedback``), the original generic tree it was
    #: derived from.  Record-upgrade flights rebuild from *this*, never
    #: from the stale specialization.  None when ``code`` is generic.
    generic_code: CodeObject | None = None
    #: Typed opcodes in ``code`` at publication time (0 when generic).
    specialized_sites: int = 0

    @property
    def bytecode_heap_bytes(self) -> int:
        """Heap charge a session books for this script's bytecode, summed
        over the code tree."""
        return sum(
            16 * len(nested.instructions)
            + 8 * len(nested.constants)
            + 24 * len(nested.feedback_slots)
            for nested in self.code.iter_code_objects()
        )


class ArtifactBuilder:
    """Compiles sources into artifacts, via the shared code cache.

    Stateless apart from its references; safe to call from any thread
    (the underlying :class:`CodeCache` is internally locked).
    """

    def __init__(
        self,
        code_cache: CodeCache,
        optimize: bool = True,
        record_store=None,
        specialize: bool = True,
    ):
        self.code_cache = code_cache
        self.optimize = optimize
        self.record_store = record_store
        self.specialize = specialize

    def compile(self, filename: str, source: str) -> "tuple[CodeObject, bool]":
        """Compile through the code cache; returns ``(code, hit)`` where
        ``hit`` is True iff the frontend was skipped."""
        code = self.code_cache.lookup(filename, source)
        if code is not None:
            return code, True
        code = compile_source(source, filename)
        if self.optimize:
            from repro.bytecode.optimizer import optimize_code

            optimize_code(code)
        self.code_cache.store(filename, source, code)
        return code, False

    def build(
        self,
        filename: str,
        source: str,
        fetch_record: bool = False,
        code: CodeObject | None = None,
    ) -> "tuple[ScriptArtifact, bool]":
        """Build one artifact; returns ``(artifact, frontend_skipped)``.

        Passing ``code`` (from an already-published artifact) skips the
        compile entirely — the record-upgrade path.
        """
        if code is not None:
            self.code_cache.note_hit()
            hit = True
        else:
            code, hit = self.compile(filename, source)
        record = None
        fetched = False
        if fetch_record and self.record_store is not None:
            record = self.record_store.get(filename, source)
            fetched = True
        digest = source_hash(source)
        key = f"{filename}:{digest}"
        exec_code, generic_code, specialized = code, None, 0
        if self.specialize and record is not None:
            exec_code, generic_code, specialized = quicken_artifact_code(
                code, key, record
            )
        artifact = ScriptArtifact(
            filename=filename,
            source=source,
            source_hash=digest,
            key=key,
            code=exec_code,
            record=record,
            record_fetched=fetched,
            generic_code=generic_code,
            specialized_sites=specialized,
        )
        return artifact, hit


def quicken_artifact_code(
    code: CodeObject, key: str, record: "ICRecord"
) -> "tuple[CodeObject, CodeObject | None, int]":
    """Quicken one script's tree against a store-fetched record.

    Returns ``(exec code, generic code or None, sites specialized)``.
    The record must be structurally valid *and* trust-matched (the
    artifact key appears in its ``script_keys``) — the same gate session
    admission applies — else the generic tree is returned untouched.
    Sessions consuming a pre-quickened artifact skip their own
    quickening pass, so concurrent sessions share one immutable clone.
    """
    from repro.ric.icrecord import ICRecord
    from repro.ric.validate import validate_record
    from repro.specialize.quicken import quicken_code

    if (
        not isinstance(record, ICRecord)
        or key not in record.script_keys
        or not record.site_feedback
        or validate_record(record)
    ):
        return code, None, 0
    quickened, count = quicken_code(code, record.site_feedback)
    if count == 0:
        return code, None, 0
    return quickened, code, count


class _Flight:
    """One in-progress build other threads can join."""

    __slots__ = ("event", "artifact", "error")

    def __init__(self):
        self.event = threading.Event()
        self.artifact: ScriptArtifact | None = None
        self.error: BaseException | None = None


@dataclass
class ArtifactCacheStats:
    """Build/hit/join tallies, snapshot under the cache lock."""

    hits: int = 0
    builds: int = 0
    joins: int = 0
    record_fetches: int = 0
    extra: dict = field(default_factory=dict)


class ArtifactCache:
    """Thread-safe artifact cache with single-flight builds.

    One instance is shared by an engine's facade path, every concurrent
    executor session, and anything else that wants warm artifacts.  The
    invariant under concurrency: for one (filename, source hash), at
    most one compile and at most one record-store GET are ever in
    flight, no matter how many sessions cold-start it at once.  Flights
    are keyed by script identity alone, so the invariant holds even when
    code-only and record-fetching callers race: the record-upgrade
    flight reuses the published code instead of recompiling.
    """

    def __init__(self, builder: ArtifactBuilder):
        self.builder = builder
        self._entries: dict[str, ScriptArtifact] = {}
        self._flights: dict[str, _Flight] = {}
        #: Keys whose pinned record went stale (a fresher one was
        #: published); the next ``fetch_record`` get re-asks the store
        #: under a record-upgrade flight instead of serving the entry.
        self._stale_records: set[str] = set()
        self._lock = threading.Lock()
        self._hits = 0
        self._builds = 0
        self._joins = 0
        self._record_fetches = 0

    def _satisfies(
        self, artifact: ScriptArtifact, want_record: bool, key: str
    ) -> bool:
        if want_record and key in self._stale_records:
            return False
        return artifact.record_fetched or not want_record

    def get_or_build(
        self, filename: str, source: str, fetch_record: bool = False
    ) -> "tuple[ScriptArtifact, bool]":
        """Return ``(artifact, frontend_skipped)`` for one script.

        ``fetch_record=True`` guarantees the returned artifact has had a
        record-store fetch attempted (performing one, once, if the cached
        artifact was built without).  Exceptions from the underlying
        build (e.g. :class:`~repro.lang.errors.JSLSyntaxError`) propagate
        to the building thread *and* to every joiner of that flight;
        failed builds are not cached, so a later call retries.
        """
        key = f"{filename}:{source_hash(source)}"
        want_record = fetch_record and self.builder.record_store is not None
        while True:
            with self._lock:
                artifact = self._entries.get(key)
                if artifact is not None and self._satisfies(
                    artifact, want_record, key
                ):
                    self._hits += 1
                    self.builder.code_cache.note_hit()
                    return artifact, True
                flight = self._flights.get(key)
                if flight is None:
                    flight = _Flight()
                    self._flights[key] = flight
                    base = artifact  # None on a true cold start
                    break  # this thread owns the build
            # Another thread is building this script: join its flight.
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            published = flight.artifact
            if published is not None and self._satisfies(
                published, want_record, key
            ):
                with self._lock:
                    self._joins += 1
                self.builder.code_cache.note_hit()
                return published, True
            # The flight we joined didn't fetch the record we need (or
            # resolved emptily); loop to upgrade it under a new flight.

        return self._run_flight(key, flight, base, filename, source, want_record)

    def _run_flight(
        self,
        key: str,
        flight: _Flight,
        base: "ScriptArtifact | None",
        filename: str,
        source: str,
        want_record: bool,
    ) -> "tuple[ScriptArtifact, bool]":
        # Invariant on entry: either base is None (cold start: compile)
        # or base lacks a fetched record and want_record is True
        # (record-upgrade: reuse base's *generic* code, fetch only —
        # re-specializing base's quickened clone against a newer record
        # would stack stale typed ops under the new record's feedback).
        try:
            artifact, hit = self.builder.build(
                filename,
                source,
                fetch_record=want_record,
                code=(
                    (base.generic_code or base.code)
                    if base is not None
                    else None
                ),
            )
            with self._lock:
                self._entries[key] = artifact
                self._builds += 1
                if artifact.record_fetched:
                    self._record_fetches += 1
                    self._stale_records.discard(key)
                flight.artifact = artifact
                self._flights.pop(key, None)
                flight.event.set()
            return artifact, hit
        except BaseException as exc:
            with self._lock:
                flight.error = exc
                self._flights.pop(key, None)
                flight.event.set()
            raise

    def get_many(
        self,
        scripts: "typing.Sequence[tuple[str, str]]",
        fetch_record: bool = False,
    ) -> "list[tuple[ScriptArtifact, bool]]":
        """Artifacts for a whole workload, in script order."""
        return [
            self.get_or_build(filename, source, fetch_record=fetch_record)
            for filename, source in scripts
        ]

    def invalidate(self, filename: str, source: str) -> bool:
        """Drop one artifact entirely (source semantics changed, or tests
        forcing a rebuild).  Returns True if present."""
        key = f"{filename}:{source_hash(source)}"
        with self._lock:
            self._stale_records.discard(key)
            return self._entries.pop(key, None) is not None

    def refresh_record(self, filename: str, source: str) -> bool:
        """Mark one artifact's pinned record stale — a fresher record was
        published — without dropping the compiled artifact.  The next
        ``fetch_record`` get runs a record-upgrade flight: one store GET,
        no recompile, and any quickened code is rebuilt from the
        artifact's *generic* tree against the new record (reapplying the
        stale specialization would let demoted sites keep their typed
        opcodes).  Returns True if an entry was marked."""
        key = f"{filename}:{source_hash(source)}"
        with self._lock:
            if key not in self._entries:
                return False
            self._stale_records.add(key)
            return True

    def stats(self) -> ArtifactCacheStats:
        with self._lock:
            return ArtifactCacheStats(
                hits=self._hits,
                builds=self._builds,
                joins=self._joins,
                record_fetches=self._record_fetches,
                extra={"entries": len(self._entries)},
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
