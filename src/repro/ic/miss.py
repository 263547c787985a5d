"""The runtime IC miss path (paper §2.3/§2.4).

Every object access site first probes its ICVector slot; on a miss the
runtime is entered: it performs the full property lookup, possibly creates
a hidden class (transitioning stores), generates a specialised handler and
updates the ICVector — all of which is charged to the ``ic_miss``
instruction category, reproducing the overhead the paper's Figure 5
measures.

:class:`ICRuntime` is shared by the VM's property opcodes.  When a
RIC reuse session is attached, hidden-class creations flow to it (for
validation + dependent-site preloading) and reuse-run misses are attributed
to the paper's Table 4 buckets (Handler / Global / Other).
"""

from __future__ import annotations

import typing

from repro.interpreter import cost_model as cost
from repro.ic.handlers import (
    MISS,
    Handler,
    LoadArrayLengthHandler,
    LoadElementHandler,
    LoadFieldHandler,
    LoadGlobalHandler,
    LoadNotFoundHandler,
    LoadPrototypeChainHandler,
    StoreElementHandler,
    StoreFieldHandler,
    StoreGlobalHandler,
    StoreTransitionHandler,
)
from repro.ic.icvector import ICSite, ICState
from repro.lang.errors import JSLReferenceError
from repro.runtime.context import Runtime
from repro.runtime.objects import JSArray, JSFunction, JSObject
from repro.runtime.values import UNDEFINED, to_number, to_property_key
from repro.stats.counters import (
    CATEGORY_EXECUTE,
    CATEGORY_IC_MISS,
    MISS_GLOBAL,
    MISS_OTHER,
    Counters,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.ric.reuse import ReuseSession


class ICRuntime:
    """Implements IC probes, hits and the runtime miss path."""

    __slots__ = (
        "runtime",
        "counters",
        "reuse_session",
        "tracer",
        "_load_field_cache",
        "_store_field_cache",
        "_load_element",
        "_store_element",
        "_load_array_length",
        "stub_cache",
    )

    def __init__(
        self,
        runtime: Runtime,
        counters: Counters,
        reuse_session: "ReuseSession | None" = None,
        tracer=None,
    ):
        self.runtime = runtime
        self.counters = counters
        self.reuse_session = reuse_session
        self.tracer = tracer
        # Context-independent handlers are structurally shared, like V8's
        # handler code cache.
        self._load_field_cache: dict[int, LoadFieldHandler] = {}
        self._store_field_cache: dict[int, StoreFieldHandler] = {}
        self._load_element = LoadElementHandler()
        self._store_element = StoreElementHandler()
        self._load_array_length = LoadArrayLengthHandler()
        # V8-style megamorphic stub cache for keyed accesses with string
        # keys: (hidden class address, property, is_store) -> handler.  Like
        # V8's, it is flushed between executions (it embeds per-run
        # addresses) — keyed accesses therefore re-miss every run, feeding
        # Table 4's dominant "Other" bucket.
        self.stub_cache: dict[tuple[int, str, bool], Handler] = {}

    # -- shared handler construction -----------------------------------------

    def load_field_handler(self, offset: int) -> LoadFieldHandler:
        handler = self._load_field_cache.get(offset)
        if handler is None:
            handler = LoadFieldHandler(offset)
            self._load_field_cache[offset] = handler
        return handler

    def store_field_handler(self, offset: int) -> StoreFieldHandler:
        handler = self._store_field_cache.get(offset)
        if handler is None:
            handler = StoreFieldHandler(offset)
            self._store_field_cache[offset] = handler
        return handler

    # -- bookkeeping helpers -----------------------------------------------------

    def _record_handler_generated(self, handler: Handler) -> None:
        self.counters.handlers_generated += 1
        if handler.is_context_independent:
            self.counters.handlers_generated_context_independent += 1
        self.counters.charge(CATEGORY_IC_MISS, cost.HANDLER_GENERATE)
        if self.tracer is not None:
            from repro.stats.tracing import HANDLER_GENERATED

            self.tracer.emit(
                HANDLER_GENERATED,
                detail=handler.describe()
                + ("" if handler.is_context_independent else " [CD]"),
            )

    def _install(self, site: ICSite, hc, handler: Handler) -> None:
        self.counters.charge(CATEGORY_IC_MISS, cost.IC_UPDATE)
        before = site.state
        site.install(hc, handler)
        after = site.state
        if after is not before:
            # Tier transitions are counted here (and in RIC preloading),
            # never in the VM fast paths — which only probe, never
            # install — so the counts match under both fast-path modes.
            if after is ICState.POLYMORPHIC:
                self.counters.ic_poly_transitions += 1
            elif after is ICState.MEGAMORPHIC:
                self.counters.ic_mega_transitions += 1
                if self.tracer is not None:
                    from repro.stats.tracing import SITE_MEGAMORPHIC

                    self.tracer.emit(SITE_MEGAMORPHIC, site_key=site.info.site_key)

    def _classify_miss(self, site: ICSite, hc) -> str:
        reason = (
            self.reuse_session.classify_miss(site, hc)
            if self.reuse_session is not None
            else MISS_OTHER
        )
        if self.tracer is not None:
            from repro.stats.tracing import IC_MISS

            self.tracer.emit(
                IC_MISS, site_key=site.info.site_key, hc_index=hc.index, detail=reason
            )
        return reason

    @staticmethod
    def _chain_cacheable(chain) -> bool:
        """A chain handler is only sound if no walked prototype is in
        dictionary mode: dictionary stores do not change the hidden class,
        so no validity cell would ever fire for them."""
        return all(not proto.in_dictionary_mode for proto, _ in chain)

    def _charge_lookup(self, obj: JSObject, hops: int) -> None:
        layout_size = (
            len(obj.dict_properties)
            if obj.dict_properties is not None
            else len(obj.hidden_class.layout)
        )
        self.counters.charge(
            CATEGORY_IC_MISS,
            cost.PROPERTY_LOOKUP_BASE
            + cost.PROPERTY_LOOKUP_PER_PROPERTY * layout_size
            + cost.PROPERTY_LOOKUP_PER_HOP * hops,
        )

    # -- named loads -----------------------------------------------------------------

    def named_load(self, site: ICSite, obj: JSObject, name: str) -> object:
        """``obj.name`` with inline caching."""
        counters = self.counters
        counters.ic_accesses += 1
        counters.charge(CATEGORY_EXECUTE, cost.IC_PROBE)

        hc = obj.hidden_class
        handler = site.lookup(hc)
        if handler is not None:
            result = handler.execute(obj)
            if result is not MISS:
                counters.ic_hits += 1
                # A slot hit implies MONO or POLY (MEGA holds no slots).
                if site.state is ICState.MONOMORPHIC:
                    counters.ic_hits_mono += 1
                else:
                    counters.ic_hits_poly += 1
                if site.was_preloaded(hc):
                    counters.ic_hits_on_preloaded += 1
                    if self.tracer is not None:
                        from repro.stats.tracing import PRELOADED_HIT

                        self.tracer.emit(
                            PRELOADED_HIT,
                            site_key=site.info.site_key,
                            hc_index=hc.index,
                        )
                counters.charge(CATEGORY_EXECUTE, cost.HANDLER_EXECUTE)
                return result

        # Megamorphic sites fall back to the shared stub cache, like V8:
        # the site itself stays generic but (map, name) pairs still hit.
        if site.state is ICState.MEGAMORPHIC:
            stub_key = (hc.address, name, False)
            cached = self.stub_cache.get(stub_key)
            if cached is not None:
                result = cached.execute(obj)
                if result is not MISS:
                    counters.ic_hits += 1
                    counters.ic_hits_mega += 1
                    counters.charge(CATEGORY_EXECUTE, cost.HANDLER_EXECUTE)
                    return result
                del self.stub_cache[stub_key]

        counters.record_miss(self._classify_miss(site, hc))
        counters.charge(CATEGORY_IC_MISS, cost.RUNTIME_ENTRY)
        lookup = self.runtime.lookup_property(obj, name)
        self._charge_lookup(obj, lookup.hops)

        new_handler: Handler | None = None
        if hc.is_dictionary:
            counters.charge(CATEGORY_IC_MISS, cost.DICT_ACCESS)
        elif lookup.kind == "field":
            assert lookup.offset is not None
            new_handler = self.load_field_handler(lookup.offset)
        elif lookup.kind == "array_length":
            new_handler = self._load_array_length
        elif lookup.kind == "proto_field":
            assert lookup.holder is not None and lookup.offset is not None
            if self._chain_cacheable(lookup.chain):
                new_handler = LoadPrototypeChainHandler(
                    lookup.chain, lookup.holder, lookup.offset
                )
        elif lookup.kind == "absent":
            if self._chain_cacheable(lookup.chain):
                new_handler = LoadNotFoundHandler(lookup.chain)
        # "dict" / "proto_dict" / dict-mode chains: uncacheable.

        if new_handler is not None:
            self._record_handler_generated(new_handler)
            if site.state is ICState.MEGAMORPHIC:
                counters.charge(CATEGORY_IC_MISS, cost.IC_UPDATE)
                self.stub_cache[(hc.address, name, False)] = new_handler
            else:
                self._install(site, hc, new_handler)
        return lookup.value

    # -- named stores -----------------------------------------------------------------

    def named_store(self, site: ICSite, obj: JSObject, name: str, value: object) -> None:
        """``obj.name = value`` with inline caching."""
        counters = self.counters
        counters.ic_accesses += 1
        counters.charge(CATEGORY_EXECUTE, cost.IC_PROBE)

        hc = obj.hidden_class
        handler = site.lookup(hc)
        if handler is not None:
            result = handler.execute(obj, value)
            if result is not MISS:
                counters.ic_hits += 1
                if site.state is ICState.MONOMORPHIC:
                    counters.ic_hits_mono += 1
                else:
                    counters.ic_hits_poly += 1
                if site.was_preloaded(hc):
                    counters.ic_hits_on_preloaded += 1
                counters.charge(CATEGORY_EXECUTE, cost.HANDLER_EXECUTE)
                if isinstance(obj, JSFunction) and name == "prototype":
                    obj.invalidate_constructor_hc()
                return

        # Megamorphic stores also use the shared stub cache (V8-like).
        if site.state is ICState.MEGAMORPHIC:
            stub_key = (hc.address, name, True)
            cached = self.stub_cache.get(stub_key)
            if cached is not None:
                result = cached.execute(obj, value)
                if result is not MISS:
                    counters.ic_hits += 1
                    counters.ic_hits_mega += 1
                    counters.charge(CATEGORY_EXECUTE, cost.HANDLER_EXECUTE)
                    if isinstance(obj, JSFunction) and name == "prototype":
                        obj.invalidate_constructor_hc()
                    return
                del self.stub_cache[stub_key]

        counters.record_miss(self._classify_miss(site, hc))
        counters.charge(CATEGORY_IC_MISS, cost.RUNTIME_ENTRY)

        if hc.is_dictionary:
            assert obj.dict_properties is not None
            obj.dict_properties[name] = value
            counters.charge(CATEGORY_IC_MISS, cost.DICT_ACCESS)
            return

        offset = hc.layout.get(name)
        self._charge_lookup(obj, 0)
        if offset is not None:
            obj.slots[offset] = value
            if isinstance(obj, JSFunction) and name == "prototype":
                obj.invalidate_constructor_hc()
            new_handler: Handler = self.store_field_handler(offset)
            self._record_handler_generated(new_handler)
            self._install_or_stub(site, hc, name, new_handler, is_store=True)
            return

        outgoing, created = self.runtime.define_own_property(
            obj, name, value, site.info.site_key
        )
        if outgoing is None:
            # The object fell into (or already was in) dictionary mode.
            counters.charge(CATEGORY_IC_MISS, cost.DICT_ACCESS)
            return
        if created:
            counters.charge(CATEGORY_IC_MISS, cost.HIDDEN_CLASS_CREATE)
        transition_handler = StoreTransitionHandler(
            outgoing.layout[name], outgoing
        )
        self._record_handler_generated(transition_handler)
        self._install_or_stub(site, hc, name, transition_handler, is_store=True)

    def _install_or_stub(
        self, site: ICSite, hc, name: str, handler: Handler, is_store: bool
    ) -> None:
        """Install into the site's ICVector, or into the shared stub cache
        once the site is megamorphic."""
        if site.state is ICState.MEGAMORPHIC:
            self.counters.charge(CATEGORY_IC_MISS, cost.IC_UPDATE)
            self.stub_cache[(hc.address, name, is_store)] = handler
            return
        self._install(site, hc, handler)

    # -- keyed access --------------------------------------------------------------------

    def keyed_load(self, site: ICSite, obj: JSObject, key: object) -> object:
        """``obj[key]``.  Integer keys get element ICs; string keys go
        through the runtime every time (uncached, like a megamorphic
        KeyedLoadIC)."""
        counters = self.counters
        counters.ic_accesses += 1
        counters.charge(CATEGORY_EXECUTE, cost.IC_PROBE)

        index = _as_element_index(key)
        hc = obj.hidden_class
        if index is not None:
            handler = site.lookup(hc)
            if handler is not None and isinstance(handler, LoadElementHandler):
                counters.ic_hits += 1
                counters.charge(CATEGORY_EXECUTE, cost.HANDLER_EXECUTE)
                return handler.execute(obj, index)
            counters.record_miss(self._classify_miss(site, hc))
            counters.charge(CATEGORY_IC_MISS, cost.RUNTIME_ENTRY)
            found, value = obj.get_element(index)
            self._record_handler_generated(self._load_element)
            self._install(site, hc, self._load_element)
            return value if found else UNDEFINED

        name = to_property_key(key)
        stub_key = (hc.address, name, False)
        cached = self.stub_cache.get(stub_key)
        if cached is not None:
            result = cached.execute(obj)
            if result is not MISS:
                counters.ic_hits += 1
                counters.charge(CATEGORY_EXECUTE, cost.HANDLER_EXECUTE)
                return result
            del self.stub_cache[stub_key]
        counters.record_miss(self._classify_miss(site, hc))
        counters.charge(CATEGORY_IC_MISS, cost.RUNTIME_ENTRY)
        lookup = self.runtime.lookup_property(obj, name)
        self._charge_lookup(obj, lookup.hops)
        stub_handler: Handler | None = None
        if not hc.is_dictionary:
            if lookup.kind == "field":
                assert lookup.offset is not None
                stub_handler = self.load_field_handler(lookup.offset)
            elif lookup.kind == "array_length":
                stub_handler = self._load_array_length
            elif lookup.kind == "proto_field" and self._chain_cacheable(lookup.chain):
                assert lookup.holder is not None and lookup.offset is not None
                stub_handler = LoadPrototypeChainHandler(
                    lookup.chain, lookup.holder, lookup.offset
                )
        if stub_handler is not None:
            self._record_handler_generated(stub_handler)
            counters.charge(CATEGORY_IC_MISS, cost.IC_UPDATE)
            self.stub_cache[stub_key] = stub_handler
        return lookup.value

    def keyed_store(self, site: ICSite, obj: JSObject, key: object, value: object) -> None:
        """``obj[key] = value``; same caching policy as :meth:`keyed_load`."""
        counters = self.counters
        counters.ic_accesses += 1
        counters.charge(CATEGORY_EXECUTE, cost.IC_PROBE)

        index = _as_element_index(key)
        hc = obj.hidden_class
        if index is not None:
            handler = site.lookup(hc)
            if handler is not None and isinstance(handler, StoreElementHandler):
                counters.ic_hits += 1
                counters.charge(CATEGORY_EXECUTE, cost.HANDLER_EXECUTE)
                handler.execute(obj, index, value)
                return
            counters.record_miss(self._classify_miss(site, hc))
            counters.charge(CATEGORY_IC_MISS, cost.RUNTIME_ENTRY)
            obj.set_element(index, value)
            self._record_handler_generated(self._store_element)
            self._install(site, hc, self._store_element)
            return

        name = to_property_key(key)
        stub_key = (hc.address, name, True)
        cached = self.stub_cache.get(stub_key)
        if cached is not None:
            result = cached.execute(obj, value)
            if result is not MISS:
                counters.ic_hits += 1
                counters.charge(CATEGORY_EXECUTE, cost.HANDLER_EXECUTE)
                return
            del self.stub_cache[stub_key]
        counters.record_miss(self._classify_miss(site, hc))
        counters.charge(CATEGORY_IC_MISS, cost.RUNTIME_ENTRY)
        if isinstance(obj, JSArray) and name == "length":
            obj.set_length(int(_to_number_safe(value)))
            return
        if hc.is_dictionary:
            assert obj.dict_properties is not None
            obj.dict_properties[name] = value
            counters.charge(CATEGORY_IC_MISS, cost.DICT_ACCESS)
            return
        offset = hc.layout.get(name)
        stub_handler: Handler
        if offset is not None:
            obj.slots[offset] = value
            if isinstance(obj, JSFunction) and name == "prototype":
                obj.invalidate_constructor_hc()
            stub_handler = self.store_field_handler(offset)
        else:
            outgoing, created = self.runtime.define_own_property(
                obj, name, value, site.info.site_key
            )
            if created:
                counters.charge(CATEGORY_IC_MISS, cost.HIDDEN_CLASS_CREATE)
            if outgoing is None:
                counters.charge(CATEGORY_IC_MISS, cost.DICT_ACCESS)
                return
            stub_handler = StoreTransitionHandler(outgoing.layout[name], outgoing)
        self._record_handler_generated(stub_handler)
        counters.charge(CATEGORY_IC_MISS, cost.IC_UPDATE)
        self.stub_cache[stub_key] = stub_handler

    # -- global object access ----------------------------------------------------------------

    def global_load(self, site: ICSite, name: str, soft: bool = False) -> object:
        """Load of a global variable through the global object's IC.

        Global ICs are context-dependent (load-order sensitive), so RIC
        never preloads them and their reuse-run misses land in Table 4's
        "Global" column.
        """
        counters = self.counters
        counters.ic_accesses += 1
        counters.charge(CATEGORY_EXECUTE, cost.IC_PROBE)

        global_object = self.runtime.global_object
        hc = global_object.hidden_class
        handler = site.lookup(hc)
        if handler is not None:
            result = handler.execute(global_object)
            if result is not MISS:
                counters.ic_hits += 1
                counters.charge(CATEGORY_EXECUTE, cost.HANDLER_EXECUTE)
                return result

        counters.record_miss(MISS_GLOBAL)
        counters.charge(CATEGORY_IC_MISS, cost.RUNTIME_ENTRY)
        self._charge_lookup(global_object, 0)
        if global_object.in_dictionary_mode:
            assert global_object.dict_properties is not None
            if name in global_object.dict_properties:
                return global_object.dict_properties[name]
            if soft:
                return UNDEFINED
            raise JSLReferenceError(f"{name} is not defined")
        offset = hc.layout.get(name)
        if offset is None:
            if soft:
                return UNDEFINED
            raise JSLReferenceError(f"{name} is not defined")
        new_handler = LoadGlobalHandler(offset)
        self._record_handler_generated(new_handler)
        self._install(site, hc, new_handler)
        return global_object.slots[offset]

    def global_store(self, site: ICSite, name: str, value: object) -> None:
        """Store to a global variable (creates it if missing, like
        non-strict JS)."""
        counters = self.counters
        counters.ic_accesses += 1
        counters.charge(CATEGORY_EXECUTE, cost.IC_PROBE)

        global_object = self.runtime.global_object
        hc = global_object.hidden_class
        handler = site.lookup(hc)
        if handler is not None:
            result = handler.execute(global_object, value)
            if result is not MISS:
                counters.ic_hits += 1
                counters.charge(CATEGORY_EXECUTE, cost.HANDLER_EXECUTE)
                return

        counters.record_miss(MISS_GLOBAL)
        counters.charge(CATEGORY_IC_MISS, cost.RUNTIME_ENTRY)
        self._charge_lookup(global_object, 0)
        if global_object.in_dictionary_mode:
            assert global_object.dict_properties is not None
            global_object.dict_properties[name] = value
            return
        offset = hc.layout.get(name)
        if offset is not None:
            global_object.slots[offset] = value
            new_handler = StoreGlobalHandler(offset)
            self._record_handler_generated(new_handler)
            self._install(site, hc, new_handler)
            return
        _, created = self.runtime.define_own_property(
            global_object, name, value, site.info.site_key
        )
        if created:
            counters.charge(CATEGORY_IC_MISS, cost.HIDDEN_CLASS_CREATE)

    def declare_global(self, site: ICSite, name: str) -> None:
        """``var name`` at top level: ensure the property exists.

        Counted as an IC access only when it actually mutates the global
        object (first declaration); re-declarations are cheap checks.
        """
        global_object = self.runtime.global_object
        if global_object.in_dictionary_mode:
            assert global_object.dict_properties is not None
            if name not in global_object.dict_properties:
                global_object.dict_properties[name] = UNDEFINED
            return
        if name in global_object.hidden_class.layout:
            self.counters.charge(CATEGORY_EXECUTE, cost.IC_PROBE)
            return
        self.counters.ic_accesses += 1
        self.counters.record_miss(MISS_GLOBAL)
        self.counters.charge(CATEGORY_IC_MISS, cost.RUNTIME_ENTRY)
        _, created = self.runtime.define_own_property(
            global_object, name, UNDEFINED, site.info.site_key
        )
        if created:
            self.counters.charge(CATEGORY_IC_MISS, cost.HIDDEN_CLASS_CREATE)


def _as_element_index(key: object) -> int | None:
    """Return the array index for integer-like keys, else None."""
    if isinstance(key, float):
        # NaN and ±inf fail these tests and stay property keys
        # ("NaN" / "Infinity"), as in JS.
        if 0 <= key < 2**31 and key.is_integer():
            return int(key)
        return None
    if isinstance(key, str) and key.isdigit():
        if key == "0" or not key.startswith("0"):
            return int(key)
    return None


def _to_number_safe(value: object) -> float:
    number = to_number(value)
    if number != number:  # NaN
        return 0.0
    return number
