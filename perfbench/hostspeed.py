"""Host-speed normalization of measured times.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds to minutes (other tenants share the cores and
caches).  Medians over a run do not remove that drift, so every timed
interval is bracketed by a fixed reference task — pure Python and the
standard library, independent of the engine under test, run with the
cyclic garbage collector off so the engine's heap cannot slow it — and
converted to *reference-speed* time:

    time at reference speed = wall time x REFERENCE_MS / reference task time

A program change moves the numerator only; a slower host moves both.
Reported times are therefore "wall time on a host where the reference
task takes REFERENCE_MS"; the raw wall times are kept in provenance.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter

#: Nominal duration of one reference task, in ms.
REFERENCE_MS = 10.0


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def reference_ms() -> float:
    """Wall time of the fixed reference task, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        counts: dict = {}
        values = []
        for i in range(12000):
            key = "k" + str(i % 997)
            counts[key] = counts.get(key, 0) + i
            point = _Point(i, i + 1)
            values.append(point.x + point.y)
        json.loads(json.dumps({"values": values[:2000], "counts": counts}))
        sorted(values, key=lambda value: -value)
        return (perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


def bracketed(fn, *args):
    """Call ``fn``; returns ``(result, scale)`` where ``scale`` converts
    wall time measured inside the call to reference-speed time."""
    before = reference_ms()
    result = fn(*args)
    after = reference_ms()
    return result, 2.0 * REFERENCE_MS / (before + after)
