"""SimSan: the happens-before schedule sanitizer.

:class:`SimSan` implements the kernel's :class:`~repro.sim.kernel.KernelMonitor`
protocol and the runtime's ``san`` hook simultaneously:

* the kernel reports every *event* — when it was scheduled, by whom (its
  schedule parent), and when its handler ran;
* tracked state cells (:mod:`repro.runtime.state`) report every *access*
  — which cell, read or write — which SimSan attributes to the event
  whose handler is executing.

From those two streams it builds a happens-before relation at event
granularity and reports **schedule races**: pairs of events at the same
virtual instant that touch the same cell (at least one writing) with no
happens-before path between them. Such pairs execute in an order that is
an accident of scheduling — the FIFO tiebreak of the event queue — and a
different but equally valid tie-breaking (see
:meth:`repro.sim.SimKernel.perturb_ties`) may reorder them and change
program behaviour.

Happens-before edges
--------------------
1. **Schedule parentage** — an event happens-after the event during whose
   execution it was scheduled. This single edge kind transitively covers
   message causality (send → channel flush → deliver are all schedule
   chains) because an event cannot enter the heap before its creator runs.
2. **Epilogue contract** — a normal event at time *t* happens-before every
   epilogue event at *t* (the kernel guarantees epilogues pop last at
   their instant, under perturbation included).

Events at *different* instants are always ordered by the virtual clock,
so only same-instant pairs are ever candidate races.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.san.rules import SAN_RULES
from repro.san.suppress import SanOkRegistry
from repro.sim.events import EventHandle
from repro.util.validate import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.state import StateCell
    from repro.sim.kernel import SimKernel

__all__ = ["RaceFinding", "SimSan"]


@dataclass(frozen=True)
class RaceFinding:
    """One unordered conflicting same-instant event pair on one cell."""

    rule: str  # SAN001 (write-write) or SAN002 (read-write)
    cell: str  # the cell's owner:name key
    site: tuple[str, int]  # tracked_state declaration (file, line)
    time: float  # the shared virtual instant
    #: (event seq, access kind, handler label) for both events, seq-ordered.
    access_a: tuple[int, str, str]
    access_b: tuple[int, str, str]
    suppressed: bool = False


class _EventInfo:
    __slots__ = ("time", "parent", "epilogue_priority", "label")

    def __init__(
        self,
        time: float,
        parent: int | None,
        epilogue_priority: "int | None",
        label: str,
    ) -> None:
        self.time = time
        self.parent = parent
        self.epilogue_priority = epilogue_priority
        self.label = label


def _label_of(handle: EventHandle) -> str:
    callback = handle.callback
    label = getattr(callback, "__qualname__", None)
    if label is None:  # pragma: no cover - exotic callables
        label = getattr(type(callback), "__qualname__", repr(callback))
    return str(label)


class SimSan:
    """Recorder + analyzer for one simulation run.

    Install with :meth:`install` on a fresh runtime *before* components
    are built, run the scenario, then call :meth:`analyze` /
    :meth:`diagnostics`.
    """

    def __init__(self, suppressions: SanOkRegistry | None = None) -> None:
        self._events: dict[int, _EventInfo] = {}
        self._current: int | None = None
        #: cell key -> {event seq -> "read" | "write"} ("write" wins).
        self._accesses: dict[str, dict[int, str]] = {}
        self._cells: dict[str, "StateCell"] = {}
        self.suppressions = suppressions if suppressions is not None else (
            SanOkRegistry()
        )
        self.accesses_recorded = 0

    def install(self, runtime: Any) -> None:
        """Attach to ``runtime`` (a SimRuntime): become both the kernel's
        monitor and the runtime's ``san`` hook."""
        kernel: "SimKernel" = runtime.kernel
        kernel.monitor = self
        runtime.san = self

    # ------------------------------------------------------------------
    # KernelMonitor protocol
    # ------------------------------------------------------------------

    def event_scheduled(
        self, handle: EventHandle, parent: EventHandle | None
    ) -> None:
        self._events[handle.seq] = _EventInfo(
            handle.time,
            parent.seq if parent is not None else None,
            handle.epilogue_priority,
            _label_of(handle),
        )

    def event_begin(self, handle: EventHandle) -> None:
        if handle.seq not in self._events:
            # Scheduled before the monitor was installed: no parent known.
            self._events[handle.seq] = _EventInfo(
                handle.time, None, handle.epilogue_priority, _label_of(handle)
            )
        self._current = handle.seq

    def event_end(self, handle: EventHandle) -> None:
        self._current = None

    # ------------------------------------------------------------------
    # runtime.san hook (called by StateCell)
    # ------------------------------------------------------------------

    def on_access(self, cell: "StateCell", kind: str) -> None:
        seq = self._current
        if seq is None:
            # Setup/teardown code outside any event: it runs strictly
            # before (after) the whole schedule, so it cannot race.
            return
        self.accesses_recorded += 1
        self._cells.setdefault(cell.key, cell)
        by_event = self._accesses.setdefault(cell.key, {})
        if kind == "write" or by_event.get(seq) != "write":
            by_event[seq] = kind

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    @property
    def events_observed(self) -> int:
        return len(self._events)

    @property
    def cells_touched(self) -> int:
        return len(self._accesses)

    def _epilogue_chain(self, seq: int) -> list[int]:
        """Epilogue ancestors of ``seq`` at its instant, outermost first
        (``seq`` itself included when it is an epilogue).

        Within one instant the kernel executes in *waves*: pending normal
        events always drain before any epilogue pops, and each epilogue's
        same-instant spawn runs before the next epilogue. An event's
        position is therefore determined by the chain of epilogues its
        schedule ancestry passed through — its *phase*.
        """
        t = self._events[seq].time
        chain: list[int] = []
        cursor: "int | None" = seq
        while cursor is not None:
            info = self._events.get(cursor)
            if info is None or info.time != t:
                break
            if info.epilogue_priority is not None:
                chain.append(cursor)
            cursor = info.parent
        chain.reverse()
        return chain

    def _happens_before(self, a: int, b: int) -> bool:
        """Whether same-instant events ``a`` and ``b`` are HB-ordered."""
        # Epilogue contract: compare the two phases (epilogue-ancestor
        # chains). Past the common prefix,
        # * one chain extending the other means the deeper event descends
        #   through an epilogue that pops only after the shallower event's
        #   wave has drained — deterministically ordered;
        # * two *different* epilogues at the first divergence are siblings
        #   of one wave: both are in the heap before either pops, so
        #   differing priorities order them (and everything below them)
        #   deterministically, while equal priorities pop in seq order —
        #   a schedule accident, hence no edge.
        chain_a, chain_b = self._epilogue_chain(a), self._epilogue_chain(b)
        i = 0
        while i < len(chain_a) and i < len(chain_b) and chain_a[i] == chain_b[i]:
            i += 1
        if i == len(chain_a) or i == len(chain_b):
            if len(chain_a) != len(chain_b):
                return True
        else:
            prio_a = self._events[chain_a[i]].epilogue_priority
            prio_b = self._events[chain_b[i]].epilogue_priority
            if prio_a != prio_b:
                return True
        t = self._events[b].time
        # Schedule-parent ancestry. Each event has exactly one parent and
        # parents never have later times, so an ancestor at the same
        # instant is reachable through a chain of same-instant parents.
        for start, target in ((b, a), (a, b)):
            cursor = self._events[start].parent
            while cursor is not None:
                info = self._events.get(cursor)
                if info is None or info.time != t:
                    break
                if cursor == target:
                    return True
                cursor = info.parent
        return False

    def analyze(self) -> list[RaceFinding]:
        """All conflicting unordered same-instant access pairs."""
        findings: list[RaceFinding] = []
        for key in sorted(self._accesses):
            by_event = self._accesses[key]
            cell = self._cells[key]
            by_time: dict[float, list[int]] = {}
            for seq in by_event:
                info = self._events.get(seq)
                if info is None:  # pragma: no cover - defensive
                    continue
                by_time.setdefault(info.time, []).append(seq)
            for time in sorted(by_time):
                group = sorted(by_time[time])
                if len(group) < 2:
                    continue
                for i, a in enumerate(group):
                    for b in group[i + 1 :]:
                        kind_a, kind_b = by_event[a], by_event[b]
                        if kind_a != "write" and kind_b != "write":
                            continue  # read-read never conflicts
                        if self._happens_before(a, b):
                            continue
                        rule = (
                            "SAN001"
                            if kind_a == "write" and kind_b == "write"
                            else "SAN002"
                        )
                        findings.append(
                            RaceFinding(
                                rule=rule,
                                cell=key,
                                site=cell.site,
                                time=time,
                                access_a=(a, kind_a, self._events[a].label),
                                access_b=(b, kind_b, self._events[b].label),
                                suppressed=self.suppressions.is_suppressed(
                                    rule, cell.site
                                ),
                            )
                        )
        return findings

    def diagnostics(
        self, findings: "list[RaceFinding] | None" = None
    ) -> tuple[list[Diagnostic], int]:
        """Aggregate findings into per-(cell, rule) diagnostics.

        Returns ``(diagnostics, suppressed_finding_count)``. One
        :class:`~repro.util.validate.Diagnostic` is emitted per racing
        (cell, rule) pair — anchored at the cell's declaration — naming
        the first conflicting event pair and the total number of pairs,
        so a hot cell cannot flood the report.
        """
        if findings is None:
            findings = self.analyze()
        suppressed = sum(1 for f in findings if f.suppressed)
        grouped: dict[tuple[str, str], list[RaceFinding]] = {}
        for finding in findings:
            if finding.suppressed:
                continue
            grouped.setdefault((finding.cell, finding.rule), []).append(finding)
        diagnostics: list[Diagnostic] = []
        for (cell_key, rule_id), group in sorted(grouped.items()):
            first = group[0]
            seq_a, kind_a, label_a = first.access_a
            seq_b, kind_b, label_b = first.access_b
            pair_note = (
                f"{len(group)} unordered pair{'s' if len(group) != 1 else ''}"
            )
            diagnostics.append(
                SAN_RULES[rule_id].diagnostic(
                    cell_key,
                    f"cell {cell_key!r}: {pair_note}, first at "
                    f"t={first.time:g}: event #{seq_a} ({label_a}, "
                    f"{kind_a}) vs event #{seq_b} ({label_b}, {kind_b})",
                    file=first.site[0],
                    line=first.site[1],
                )
            )
        return diagnostics, suppressed
