"""Host speed, measured next to every timed section.

The reference host is a shared microVM: for minutes at a time everything
on it runs 10–35 % slower (no steal time is reported; CPU time inflates
with wall time), which is more than any regression bound the ledger could
state. So every wall-clock measurement is bracketed by a fixed
pure-Python kernel, and reported in *reference seconds*: wall seconds
scaled by how fast the kernel ran just before and after, relative to
:data:`NOMINAL_OPS_PER_S`. On a quiet reference host a reference second
is a wall second. Over four minutes of alternating kernel and fig5
slices, raw events/s moved ±16 % between phases while the scaled figure
stayed within ±3.5 %; over ten runs in a bad phase (host at 0.68–0.98 of
nominal) raw rates spread 11–17 %, scaled ones 2–6 %.

The kernel is part of the metric's definition: changing it, or the
nominal figure, re-bases every wall-clock number in the ledger.
"""

from __future__ import annotations

import json
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable

__all__ = ["NOMINAL_OPS_PER_S", "speed", "timed"]

#: Kernel iterations per second on the quiet reference host (2 cores,
#: CPython 3.11), rounded: what ``speed() == 1.0`` means.
NOMINAL_OPS_PER_S = 1_000_000.0

_KERNEL_OPS = 8_000


def _kernel(n: int) -> int:
    """Heap pushes and pops, dict stores, small tuples and strings, and a
    JSON encode every 16th turn: the interpreter work the middleware's own
    hot path is made of, and about its share of C-level encoding."""
    heap: list[tuple[int, int]] = []
    table: dict[int, tuple[int, str]] = {}
    dumps = json.dumps
    for i in range(n):
        heappush(heap, (i * 7919 % 1000, i))
        table[i & 255] = (i, str(i))
        if len(heap) > 64:
            heappop(heap)
        if not i & 15:
            dumps({"a": i, "b": [1.5, 2.5, 3.5], "c": "x"})
    return len(table)


def speed() -> float:
    """The host's speed right now, relative to nominal (≈ 8 ms)."""
    started = perf_counter()
    _kernel(_KERNEL_OPS)
    return _KERNEL_OPS / (perf_counter() - started) / NOMINAL_OPS_PER_S


def timed(fn: Callable[..., Any], *args: Any) -> tuple[float, float, Any]:
    """``(reference seconds, wall seconds, result)`` of ``fn(*args)``."""
    before = speed()
    started = perf_counter()
    result = fn(*args)
    wall = perf_counter() - started
    return wall * (before + speed()) / 2.0, wall, result
