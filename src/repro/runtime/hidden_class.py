"""Hidden classes (V8 "maps", Self "maps", paper §2.2).

A hidden class describes the layout of a set of structurally identical
objects: which property lives at which slot offset, plus the prototype
pointer and the transition table that maps "add property P" to the next
hidden class (Figure 2 of the paper).

Context dependence (paper §3.2): the *layout* is context-independent, but a
hidden class's ``address``, its ``prototype`` pointer, and the addresses in
its transition table are all per-execution heap addresses.  This is exactly
why hidden classes themselves are never persisted by RIC — only validated
against across runs.
"""

from __future__ import annotations

import typing

from repro.runtime.heap import Heap

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.objects import JSObject


class HiddenClass:
    """One hidden class.  Create only through :class:`HiddenClassRegistry`."""

    __slots__ = (
        "address",
        "layout",
        "transitions",
        "prototype",
        "is_dictionary",
        "creation_kind",
        "creation_key",
        "incoming",
        "transition_property",
        "index",
    )

    def __init__(
        self,
        address: int,
        prototype: "JSObject | None",
        creation_kind: str,
        creation_key: str,
        index: int,
        incoming: "HiddenClass | None" = None,
        transition_property: str | None = None,
        is_dictionary: bool = False,
    ):
        self.address = address
        #: property name -> slot offset (insertion-ordered).
        self.layout: dict[str, int] = {}
        #: property name -> next hidden class (Figure 2's "Next Hidden Class").
        self.transitions: dict[str, HiddenClass] = {}
        self.prototype = prototype
        self.is_dictionary = is_dictionary
        #: "builtin" (created deterministically at startup), "ctor" (a
        #: function's initial map) or "site" (created by a transitioning
        #: object access site).
        self.creation_kind = creation_kind
        #: The stable cross-execution key: a builtin name, a constructor key,
        #: or the triggering site's key.
        self.creation_key = creation_key
        self.incoming = incoming
        self.transition_property = transition_property
        #: Creation-order index within this execution.
        self.index = index

    @property
    def property_count(self) -> int:
        return len(self.layout)

    def __repr__(self) -> str:
        keys = ",".join(self.layout)
        return (
            f"<HiddenClass #{self.index} @{self.address:#x} "
            f"[{keys}] from {self.creation_kind}:{self.creation_key}>"
        )


class HiddenClassRegistry:
    """Creates and tracks every hidden class of one execution.

    The registry is the source of the paper's Table 1 "# of Diff. Hidden
    Classes" statistic, and its creation hooks are where RIC's reuse-run
    validation engages (builtin creation and transitioning sites).
    """

    __slots__ = ("_heap", "all_classes", "on_created")

    def __init__(self, heap: Heap):
        self._heap = heap
        self.all_classes: list[HiddenClass] = []
        #: Hook invoked with every newly created hidden class.
        self.on_created: typing.Callable[[HiddenClass], None] | None = None

    def _new(self, **kwargs) -> HiddenClass:
        address = self._heap.allocate("hidden_class")
        hc = HiddenClass(address=address, index=len(self.all_classes), **kwargs)
        self.all_classes.append(hc)
        if self.on_created is not None:
            self.on_created(hc)
        return hc

    def create_root(
        self,
        creation_kind: str,
        creation_key: str,
        prototype: "JSObject | None",
        layout: dict[str, int] | None = None,
    ) -> HiddenClass:
        """Create a root hidden class (builtin or constructor initial map)."""
        hc = self._new(
            prototype=prototype,
            creation_kind=creation_kind,
            creation_key=creation_key,
        )
        if layout:
            hc.layout.update(layout)
        return hc

    def create_dictionary(self, prototype: "JSObject | None") -> HiddenClass:
        """The hidden class of an object demoted to dictionary mode.

        Dictionary-mode objects are uncacheable by the IC (paper's V8 does
        the same for objects with out-of-object dictionaries)."""
        return self._new(
            prototype=prototype,
            creation_kind="builtin",
            creation_key="builtin:Dictionary",
            is_dictionary=True,
        )

    def transition(
        self, incoming: HiddenClass, prop: str, site_key: str
    ) -> tuple[HiddenClass, bool]:
        """Follow (or create) the transition for adding ``prop``.

        Returns ``(hidden_class, created)``.  ``created`` is True when a new
        hidden class had to be made — i.e. when ``site_key`` became a
        Triggering site for it (paper §4).
        """
        existing = incoming.transitions.get(prop)
        if existing is not None:
            return existing, False
        hc = self._new(
            prototype=incoming.prototype,
            creation_kind="site",
            creation_key=site_key,
            incoming=incoming,
            transition_property=prop,
        )
        hc.layout.update(incoming.layout)
        hc.layout[prop] = len(hc.layout)
        incoming.transitions[prop] = hc
        return hc, True

    def count(self) -> int:
        return len(self.all_classes)
