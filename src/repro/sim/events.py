"""Event handles and the ordering contract of the kernel's heap.

:class:`~repro.sim.kernel.SimKernel` owns the pending-event set: a binary
heap it pushes to from each of its schedulers and pops from in its one run
loop.  This module holds what a scheduled event *is* — its
:class:`EventHandle` — and the order the heap keeps.

Ordering contract
-----------------
The heap's total order is the explicit triple

    ``(time, tiebreak, seq)``

* ``time`` — the virtual timestamp the event fires at;
* ``tiebreak`` — ``0.0`` for every normal event in normal operation, so
  it is inert; a *perturbed* kernel (see
  :meth:`~repro.sim.kernel.SimKernel.perturb_ties`) assigns each normal
  event a seeded pseudo-random value in ``[0, 1)`` here instead, which
  permutes the pop order of equal-timestamp events while leaving the
  timestamps themselves untouched.  *Epilogue* events always use
  ``_EPILOGUE_BASE + priority`` (≥ 2.0), so they sort after every normal
  event at their instant — perturbed or not — and among themselves by
  priority;
* ``seq`` — a monotonic insertion sequence number, allocated by the push
  and never reused.

With the default ``tiebreak == 0.0`` the order degenerates to
``(time, seq)``: **events scheduled for the same instant fire in exactly
the order they were scheduled (FIFO)**.  The rest of the system relies on
that for determinism, and the schedule sanitizer (:mod:`repro.san`)
relies on the *explicit* ``seq`` tiebreaker — never on incidental
comparison of callbacks or argument tuples — so that any two runs of the
same program produce the same schedule.  ``seq`` is also the event's
identity in the sanitizer's happens-before graph.

Under perturbation the order is still a deterministic function of the
(heap contents, perturbation seed) pair — ``seq`` remains the final
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
unique, never falls through to comparing handles, which define no order.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["EventHandle"]

#: Tiebreak base reserved for *epilogue* events: an epilogue's tiebreak is
#: ``_EPILOGUE_BASE + priority``, so every epilogue sorts after every
#: normal event at the same timestamp (whose tiebreak is at most 1.0),
#: under perturbation included, and epilogues of different priority sort
#: among themselves by priority. See
#: :meth:`repro.sim.kernel.SimKernel.schedule_epilogue`.
_EPILOGUE_BASE = 2.0


class EventHandle:
    """Cancellable reference to one scheduled callback.

    Built only by the kernel's schedulers, which fill the slots themselves —
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

    @property
    def epilogue_priority(self) -> int | None:
        """This epilogue's priority, or ``None`` for a normal event."""
        if self.tiebreak < _EPILOGUE_BASE:
            return None
        return int(self.tiebreak - _EPILOGUE_BASE)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    return None
