"""The sim-time profiler: busy-time accounting and utilization timelines.

Everything here runs *inside* the simulation but measures only virtual
time, so a profile is a pure function of (scenario, seed): two runs with
the same inputs produce byte-identical profiles, and the schedule
sanitizer's perturbation replay (:mod:`repro.san`) must not change them
either. Three design points make that hold:

* **Commutative accumulation.** Busy time is summed per
  ``(node, domain, operation)`` key; sums and counts are invariant to
  the order same-instant events fire in.
* **Interval bookkeeping.** A resource grant (a CPU service, a WLAN
  airtime occupation) is recorded as a closed interval on the virtual
  timeline (:class:`BusyIntegrator`), so "busy time inside a sampling
  window" is geometric overlap, not charge-at-submit bookkeeping — a
  node's busy time up to *t* can never exceed ``servers * t``.
* **Epilogue sampling.** The utilization sampler runs as a kernel
  *epilogue* (after every normal event of its instant, perturbed or
  not), so the state it snapshots — queue watermarks, broker occupancy —
  is the end-of-instant state under every tie-break schedule.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.metrics import metric_key
from repro.sim.events import EventHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime

__all__ = ["PROF_SAMPLE_EVENT", "BusyIntegrator", "Profiler", "enable_profiling"]

#: Trace event name under which utilization samples are recorded.
PROF_SAMPLE_EVENT = "prof.sample"

#: Epilogue priority of the sampler: after WLAN flushes (0) and chaos
#: fault application (1), so a sample sees the instant fully settled.
_SAMPLER_PRIORITY = 2


class BusyIntegrator:
    """Busy intervals on the virtual timeline, queryable by window.

    Intervals are appended with nondecreasing start times (guaranteed by
    the hook sites: a grant starts at the grant instant or later, and
    grants arrive in virtual-time order). They may overlap (k-server
    CPUs, queued airtime grants), so window queries sum *overlap* — for
    a single-server resource the result can never exceed the window.

    Storage is three parallel arrays — starts, ends, and a running
    maximum of ends — so a window query bisects to the first interval
    that can overlap and to the first that starts past the window,
    scanning only the slice between.  The scanned intervals, their
    summation order, and the ``overlap > 0`` guard are exactly those of
    the naive full scan, so results are bit-identical to it (profile
    digests depend on that).
    """

    __slots__ = ("_starts", "_ends", "_maxends", "_total")

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        #: ``_maxends[i] == max(_ends[:i+1])`` — nondecreasing, bisectable.
        self._maxends: list[float] = []
        self._total = 0.0

    def add(self, start: float, duration: float) -> None:
        """Record a grant of ``duration`` seconds beginning at ``start``."""
        if duration <= 0.0:
            return
        end = start + duration
        maxends = self._maxends
        self._starts.append(start)
        self._ends.append(end)
        if maxends and maxends[-1] > end:
            maxends.append(maxends[-1])
        else:
            maxends.append(end)
        self._total += duration

    @property
    def total(self) -> float:
        """Total granted busy time (including portions not yet elapsed)."""
        return self._total

    @property
    def grants(self) -> int:
        return len(self._starts)

    def busy_between(self, a: float, b: float) -> float:
        """Aggregate busy seconds inside the window ``[a, b]``."""
        if b <= a:
            return 0.0
        starts = self._starts
        # Everything from the first ``start >= b`` onward is irrelevant
        # (starts are nondecreasing); everything before the first running
        # max-of-ends ``> a`` has ``end <= a`` and contributes 0.
        hi = bisect_left(starts, b)
        if hi == 0:
            return 0.0
        lo = bisect_right(self._maxends, a, 0, hi)
        busy = 0.0
        ends = self._ends
        for i in range(lo, hi):
            start = starts[i]
            end = ends[i]
            overlap = (end if end < b else b) - (start if start > a else a)
            if overlap > 0.0:
                busy += overlap
        return busy

    def busy_up_to(self, t: float) -> float:
        """Aggregate busy seconds in ``[0, t]``."""
        return self.busy_between(0.0, t)


def _node_of(resource_name: str) -> str:
    """``module-e.cpu`` -> ``module-e`` (bare names pass through)."""
    return resource_name.removesuffix(".cpu")


class Profiler:
    """Hierarchical busy-time profile plus sampled utilization timelines.

    Attached to a runtime as ``runtime.prof`` by :func:`enable_profiling`.
    The hook surface (all guarded by ``runtime.prof is not None`` at the
    call sites):

    * :meth:`on_cpu_start` / :meth:`on_cpu_end` — bracket one CPU
      service (:class:`~repro.sim.resources.CpuResource` dispatch and
      completion);
    * :meth:`on_airtime` — one WLAN channel occupation
      (:meth:`~repro.net.wlan.WlanMedium._transmit_now`);
    * the :class:`~repro.sim.kernel.KernelMonitor` protocol — handler
      brackets counting events per callback.
    """

    def __init__(self, runtime: "Runtime", interval_s: float = 1.0) -> None:
        from repro.runtime.state import tracked_state

        self.runtime = runtime
        self.interval_s = float(interval_s)
        self.samples = 0
        #: (node, domain, operation) -> [busy_s, completions]; charged at
        #: grant completion, so the tree covers finished work only.
        self._busy: dict[tuple[str, str, str], list[float]] = {}
        #: Per-node CPU busy timelines (aggregate over servers).
        self._cpu_timeline: dict[str, BusyIntegrator] = {}
        #: Shared-channel airtime timeline.
        self._wlan_timeline = BusyIntegrator()
        #: Hook bindings, resolved once per resource instead of per call:
        #: CPU resource name -> its node's timeline; CPU resource name ->
        #: job label -> ``_busy`` cell; station -> its airtime ``_busy`` cell.
        self._resource_timeline: dict[str, BusyIntegrator] = {}
        self._resource_busy: dict[str, dict[str, list[float]]] = {}
        self._station_busy: dict[str, list[float]] = {}
        #: Where the hooks read virtual time (one property hop, not two).
        self._clock = getattr(runtime, "kernel", runtime)
        #: Kernel handler brackets: callback qualname -> events executed.
        self._event_counts: dict[str, int] = {}
        self.events_profiled = 0
        self._last_sample_t = runtime.now
        self._sampling = False
        # All profiler accumulation is commutative (sums, counts, interval
        # unions), so concurrent same-instant charges are benign; the
        # sampler itself runs as an end-of-instant epilogue.
        self._cell = tracked_state(runtime, "prof", "accounting")  # repro: san-ok[SAN001]

    # ------------------------------------------------------------------
    # CPU hooks (repro.sim.resources)
    # ------------------------------------------------------------------

    def on_cpu_start(self, resource_name: str, label: str, service_s: float) -> None:
        """One job entered service on a CPU for ``service_s`` seconds."""
        self._cell.note_write()
        try:
            timeline = self._resource_timeline[resource_name]
        except KeyError:
            timeline = self._resource_timeline[resource_name] = (
                self._cpu_timeline.setdefault(_node_of(resource_name), BusyIntegrator())
            )
        timeline.add(self._clock.now, service_s)

    def on_cpu_end(self, resource_name: str, label: str, service_s: float) -> None:
        """The job's service elapsed; charge it to the profile tree."""
        self._cell.note_write()
        try:
            entry = self._resource_busy[resource_name][label]
        except KeyError:
            entry = self._busy.setdefault(
                (_node_of(resource_name), "cpu", label), [0.0, 0.0]
            )
            self._resource_busy.setdefault(resource_name, {})[label] = entry
        entry[0] += service_s
        entry[1] += 1.0

    # ------------------------------------------------------------------
    # WLAN hook (repro.net.wlan)
    # ------------------------------------------------------------------

    def on_airtime(self, station: str, start: float, airtime_s: float) -> None:
        """``station`` occupies the shared channel for ``airtime_s``."""
        self._cell.note_write()
        self._wlan_timeline.add(start, airtime_s)
        try:
            entry = self._station_busy[station]
        except KeyError:
            entry = self._station_busy[station] = self._busy.setdefault(
                (station, "wlan", "airtime"), [0.0, 0.0]
            )
        entry[0] += airtime_s
        entry[1] += 1.0

    # ------------------------------------------------------------------
    # KernelMonitor protocol (handler brackets)
    # ------------------------------------------------------------------

    #: The profiler only acts on ``event_begin``; declaring the other two
    #: hooks uninteresting lets the kernel skip their dispatch entirely.
    wants_scheduled = False
    wants_begin = True
    wants_end = False

    def event_scheduled(
        self, handle: EventHandle, parent: EventHandle | None
    ) -> None:
        return None

    def event_begin(self, handle: EventHandle) -> None:
        callback = handle.callback
        try:
            name = callback.__qualname__
        except AttributeError:
            name = type(callback).__name__
        self.events_profiled += 1
        counts = self._event_counts
        try:
            counts[name] += 1
        except KeyError:
            counts[name] = 1

    def event_end(self, handle: EventHandle) -> None:
        return None

    # ------------------------------------------------------------------
    # Queries (used by repro.prof.report and the bench harness)
    # ------------------------------------------------------------------

    @property
    def busy(self) -> dict[tuple[str, str, str], tuple[float, int]]:
        """Completed busy time: ``(node, domain, op) -> (seconds, count)``."""
        return {
            key: (entry[0], int(entry[1])) for key, entry in self._busy.items()
        }

    def cpu_busy_by_op(self) -> dict[str, tuple[float, int]]:
        """Node-summed CPU busy: ``op -> (seconds, count)``, sorted by op."""
        totals: dict[str, list[float]] = {}
        for (node, domain, op), (seconds, count) in self._busy.items():
            if domain != "cpu":
                continue
            entry = totals.setdefault(op, [0.0, 0])
            entry[0] += seconds
            entry[1] += count
        return {
            op: (seconds, int(count)) for op, (seconds, count) in sorted(totals.items())
        }

    @property
    def event_counts(self) -> dict[str, int]:
        return dict(self._event_counts)

    def cpu_nodes(self) -> list[str]:
        return sorted(self._cpu_timeline)

    def cpu_busy_between(self, node: str, a: float, b: float) -> float:
        timeline = self._cpu_timeline.get(node)
        return timeline.busy_between(a, b) if timeline is not None else 0.0

    def cpu_utilization(
        self, node: str, since: float = 0.0, until: float | None = None
    ) -> float:
        """Aggregate CPU busy share of ``node`` over ``[since, until]``.

        For multi-core nodes divide by the core count for per-core
        utilization (the paper's modules are all single-core).
        """
        end = self.runtime.now if until is None else until
        window = end - since
        if window <= 0.0:
            return 0.0
        return self.cpu_busy_between(node, since, end) / window

    def wlan_busy_between(self, a: float, b: float) -> float:
        return self._wlan_timeline.busy_between(a, b)

    def wlan_utilization(
        self, since: float = 0.0, until: float | None = None
    ) -> float:
        end = self.runtime.now if until is None else until
        window = end - since
        if window <= 0.0:
            return 0.0
        return self._wlan_timeline.busy_between(since, end) / window

    # ------------------------------------------------------------------
    # Sampling (utilization timeline into the trace)
    # ------------------------------------------------------------------

    def start_sampling(self) -> None:
        """Arm the periodic end-of-instant sampler (sim kernels only)."""
        kernel = getattr(self.runtime, "kernel", None)
        if kernel is None or self._sampling or self.interval_s <= 0:
            return
        self._sampling = True
        kernel.schedule_epilogue(
            self._tick, delay=self.interval_s, priority=_SAMPLER_PRIORITY
        )

    def stop_sampling(self) -> None:
        self._sampling = False

    def _tick(self) -> None:
        if not self._sampling:
            return
        self.sample()
        self.runtime.kernel.schedule_epilogue(
            self._tick, delay=self.interval_s, priority=_SAMPLER_PRIORITY
        )

    def sample(self) -> dict[str, float]:
        """Snapshot utilization since the previous sample into the trace.

        Emits one ``prof.sample`` record whose ``u`` mapping holds, per
        node, the windowed CPU busy share (aggregate over cores divided
        by the core count) and the waiting-queue watermark since the last
        sample; plus the channel airtime share and any component-exposed
        occupancy gauges (``prof_gauges``, e.g. broker inflight).
        """
        runtime = self.runtime
        now = runtime.now
        window = now - self._last_sample_t
        u: dict[str, float] = {}
        nodes = getattr(runtime, "nodes", None) or {}
        for name in sorted(nodes):
            node = nodes[name]
            cpu = node.cpu
            if cpu is None:
                continue
            if window > 0.0:
                busy = self.cpu_busy_between(name, self._last_sample_t, now)
                util = busy / (window * cpu.servers)
            else:
                util = 0.0
            u[metric_key("prof.cpu.util", {"node": name})] = round(util, 9)
            u[metric_key("prof.cpu.queue_peak", {"node": name})] = float(
                cpu.take_queue_watermark()
            )
            for component in node.components:
                gauges: Callable[[], dict[str, float]] | None = getattr(
                    component, "prof_gauges", None
                )
                if gauges is None:
                    continue
                for gauge_name in sorted(values := gauges()):
                    key = metric_key(
                        f"prof.{gauge_name}",
                        {"component": component.name, "node": name},
                    )
                    u[key] = round(float(values[gauge_name]), 9)
        if getattr(runtime, "wlan", None) is not None and window > 0.0:
            share = self._wlan_timeline.busy_between(self._last_sample_t, now)
            u["prof.wlan.util"] = round(share / window, 9)
        # Sampling consumes the accounting accumulators and moves the
        # window origin the next busy_between() is measured from.
        self._cell.note_write()
        self.samples += 1
        self._last_sample_t = now
        runtime.tracer.emit(now, "prof", PROF_SAMPLE_EVENT, u=u)
        return u


def enable_profiling(
    runtime: "Runtime", interval_s: float | None = None
) -> Profiler | None:
    """Install a :class:`Profiler` on ``runtime`` (idempotent).

    ``interval_s`` defaults to the observability scrape cadence when
    ``repro.obs`` is enabled on the runtime (so utilization samples line
    up with metric scrapes), else 1 s. Only simulated runtimes are
    profiled — under the real runtime virtual-cost accounting is
    meaningless, so this is a no-op returning ``None``.
    """
    if getattr(runtime, "prof", None) is not None:
        return runtime.prof
    kernel = getattr(runtime, "kernel", None)
    if kernel is None:
        return None
    if interval_s is None:
        obs = runtime.obs
        interval_s = obs.scrape_interval_s if obs is not None else 1.0
    profiler = Profiler(runtime, interval_s=interval_s)
    runtime.prof = profiler
    # Handler brackets: chain behind any monitor already installed (the
    # schedule sanitizer), preserving its view of the schedule.
    from repro.sim.kernel import CompositeMonitor

    if kernel.monitor is None:
        kernel.monitor = profiler
    else:
        kernel.monitor = CompositeMonitor((kernel.monitor, profiler))
    profiler.start_sampling()
    return profiler
