"""Pending-event set for the discrete-event kernel.

Ordering contract
-----------------
The queue is a binary heap whose total order is the explicit triple

    ``(time, tiebreak, seq)``

* ``time`` — the virtual timestamp the event fires at;
* ``tiebreak`` — ``0.0`` for every normal event in normal operation, so
  it is inert; a *perturbed* queue (see :meth:`EventQueue.set_perturbation`)
  assigns each normal event a seeded pseudo-random value in ``[0, 1)``
  here instead, which permutes the pop order of equal-timestamp events
  while leaving the timestamps themselves untouched.  *Epilogue* events
  always use ``_EPILOGUE_BASE + priority`` (≥ 2.0), so they sort after
  every normal event at their instant — perturbed or not — and among
  themselves by priority;
* ``seq`` — a monotonic insertion sequence number, allocated by
  :meth:`EventQueue.push` and never reused.

With the default ``tiebreak == 0.0`` the order degenerates to
``(time, seq)``: **events scheduled for the same instant fire in exactly
the order they were scheduled (FIFO)**.  The rest of the system relies on
that for determinism, and the schedule sanitizer (:mod:`repro.san`)
relies on the *explicit* ``seq`` tiebreaker — never on incidental
comparison of callbacks or argument tuples — so that any two runs of the
same program produce the same schedule.  ``seq`` is also the event's
identity in the sanitizer's happens-before graph.

Under perturbation the order is still a deterministic function of the
(queue contents, perturbation seed) pair — ``seq`` remains the final
tiebreaker — so a perturbed replay is itself exactly reproducible.  Any
tie-break permutation yields a *causally valid* schedule: an event can
only be popped after the event that scheduled it has executed, because it
is not in the heap before then.

Cancellation is lazy: handles are flagged and skipped when popped, the
standard heapq idiom.

Hot-path layout
---------------
The heap stores ``(time, tiebreak, seq, handle)`` tuples rather than bare
handles: tuple comparison runs entirely in C and, because ``seq`` is
unique, never falls through to comparing handles.  ``EventHandle.__lt__``
is kept only for explicit ``sort_key`` comparisons in tests.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable

__all__ = ["EventHandle", "EventQueue"]

#: Tiebreak base reserved for *epilogue* events: an epilogue's tiebreak is
#: ``_EPILOGUE_BASE + priority``, so every epilogue sorts after every
#: normal event at the same timestamp (whose tiebreak is at most 1.0),
#: under perturbation included, and epilogues of different priority sort
#: among themselves by priority. See :meth:`EventQueue.push`.
_EPILOGUE_BASE = 2.0


class EventHandle:
    """Cancellable reference to one scheduled callback.

    Built only by :meth:`EventQueue.push`, which fills the slots itself —
    an ``__init__`` frame per event shows on the kernel hot path.
    """

    __slots__ = ("time", "seq", "tiebreak", "callback", "args", "cancelled")

    time: float
    seq: int
    tiebreak: float
    callback: Callable[..., None]
    args: tuple[Any, ...]
    cancelled: bool

    def cancel(self) -> None:
        """Prevent the callback from firing. Idempotent."""
        self.cancelled = True
        # Drop references so cancelled events pinned in the heap don't keep
        # large closures alive.
        self.callback = _noop
        self.args = ()

    def sort_key(self) -> tuple[float, float, int]:
        """The explicit ordering triple (see the module docstring)."""
        return (self.time, self.tiebreak, self.seq)

    @property
    def epilogue_priority(self) -> int | None:
        """This epilogue's priority, or ``None`` for a normal event."""
        if self.tiebreak < _EPILOGUE_BASE:
            return None
        return int(self.tiebreak - _EPILOGUE_BASE)

    def __lt__(self, other: "EventHandle") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    return None


class EventQueue:
    """Min-heap of scheduled events with deterministic ordering.

    See the module docstring for the ordering contract and the heap-entry
    layout.
    """

    __slots__ = ("_heap", "_seq", "_perturb")

    def __init__(self) -> None:
        #: Heap of ``(time, tiebreak, seq, handle)`` entries.
        self._heap: list[tuple[float, float, int, EventHandle]] = []
        self._seq = 0
        self._perturb: random.Random | None = None

    def __len__(self) -> int:
        return len(self._heap)

    def set_perturbation(self, rng: random.Random | None) -> None:
        """Install (or, with ``None``, remove) equal-timestamp perturbation.

        While installed, every subsequently pushed event draws its
        ``tiebreak`` from ``rng`` instead of the constant ``0.0``, so
        same-instant events pop in a seeded pseudo-random order rather than
        FIFO.  Events already in the heap keep the tiebreak they were
        pushed with.  Used by the schedule sanitizer's perturbation replay
        (:mod:`repro.san`); normal runs never call this.
        """
        self._perturb = rng

    @property
    def perturbed(self) -> bool:
        return self._perturb is not None

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        epilogue: bool = False,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at ``time``; return its handle.

        ``epilogue=True`` marks an *end-of-instant* event: its tiebreak is
        ``_EPILOGUE_BASE + priority``, so it pops only after every normal
        event at the same timestamp — perturbed or not — and after every
        epilogue of lower ``priority`` there.  Epilogues sharing a priority
        pop FIFO by ``seq``.  (A normal event pushed *while* an epilogue
        runs still precedes any epilogue pushed later; the contract is only
        meaningful for the buffer-then-flush pattern, where the epilogue
        schedules strictly-future work.)
        """
        if epilogue:
            if priority < 0:
                raise ValueError(f"epilogue priority must be >= 0, got {priority}")
            tiebreak = _EPILOGUE_BASE + priority
        elif self._perturb is None:
            tiebreak = 0.0
        else:
            tiebreak = self._perturb.random()
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle.__new__(EventHandle)
        handle.time = time
        handle.seq = seq
        handle.tiebreak = tiebreak
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        heapq.heappush(self._heap, (time, tiebreak, seq, handle))
        return handle

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is drained."""
        self._discard_cancelled()
        return self._heap[0][0] if self._heap else None

    def pop(self) -> EventHandle | None:
        """Pop the next live event, or None if none remain."""
        self._discard_cancelled()
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[3]

    def _discard_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)

    def clear(self) -> None:
        self._heap.clear()
