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
  node's busy time up to *t* can never exceed ``servers * t``. Every
  window ends *now*: a reader keeps its previous reading of the running
  total and takes the difference.
* **Epilogue sampling.** The utilization sampler runs as a kernel
  *epilogue* (after every normal event of its instant, perturbed or
  not), so the state it snapshots — queue watermarks, broker occupancy —
  is the end-of-instant state under every tie-break schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.obs.metrics import metric_key
from repro.sim.events import EventHandle
from repro.sim.kernel import handler_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime

__all__ = ["PROF_SAMPLE_EVENT", "BusyIntegrator", "Profiler", "enable_profiling"]

#: Trace event name under which utilization samples are recorded.
PROF_SAMPLE_EVENT = "prof.sample"

#: Epilogue priority of the sampler: after WLAN flushes (0) and chaos
#: fault application (1), so a sample sees the instant fully settled.
_SAMPLER_PRIORITY = 2


class BusyIntegrator:
    """A running busy total on the virtual timeline, read at nondecreasing instants.

    Grants arrive as ``(start, duration)`` on :attr:`pending`: a bound hook
    site appends there with no Python call. They may overlap (k-server
    CPUs, queued airtime grants) and may start after the instant they are
    recorded at (airtime queued behind the channel), never before the last
    read. :meth:`busy_until` folds them in and adds, per grant, its overlap
    with the span since the previous read, so it holds only the grants not
    yet elapsed at the last read: at most ``servers`` on a CPU, plus any
    queued airtime on the channel. A reader keeps its own previous reading;
    the busy time of its window is the difference.
    """

    __slots__ = ("pending", "_held", "_busy", "_read_at")

    def __init__(self) -> None:
        #: ``(start, duration)`` grants not folded in yet (emptied in place).
        self.pending: list[tuple[float, float]] = []
        #: Grants that had not elapsed at the last read.
        self._held: list[tuple[float, float]] = []
        self._busy = 0.0
        self._read_at = 0.0

    def busy_until(self, t: float) -> float:
        """Busy seconds in ``[0, t]``; ``t`` may not be behind the last read."""
        last = self._read_at
        if t < last:
            raise ValueError(f"read at {t} is behind the previous read at {last}")
        busy = self._busy
        held: list[tuple[float, float]] = []
        for grant in self._held + self.pending:
            start, duration = grant
            end = start + duration
            overlap = (end if end < t else t) - (start if start > last else last)
            if overlap > 0.0:
                busy += overlap
            if end > t:
                held.append(grant)
        self.pending.clear()
        self._held = held
        self._busy = busy
        self._read_at = t
        return busy


def _node_of(resource_name: str) -> str:
    """``module-e.cpu`` -> ``module-e`` (bare names pass through)."""
    return resource_name.removesuffix(".cpu")


class Profiler:
    """Hierarchical busy-time profile plus sampled utilization timelines.

    Attached to a runtime as ``runtime.prof`` by :func:`enable_profiling`.
    The charging API is :meth:`on_cpu_start` / :meth:`on_cpu_end` (one CPU
    service, :class:`~repro.sim.resources.CpuResource`), :meth:`on_airtime`
    (one WLAN channel occupation) and :meth:`event_begin` (one kernel
    handler). A CPU or WLAN site calls its hook once, to bind, and then
    records grants into the storage the hook returned, with no Python call;
    it calls the hook again when ``runtime.prof`` is another profiler, and
    every time while ``runtime.san`` is set (the sanitizer sees each
    ``prof:accounting`` write). The kernel counts handlers into
    :attr:`SimKernel.tally <repro.sim.kernel.SimKernel.tally>`.
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
        #: The sampler's previous readings: node -> CPU busy, and the channel's.
        self._sampled_cpu: dict[str, float] = {}
        self._sampled_wlan = 0.0
        #: The :meth:`register_origin` instant and each CPU timeline's reading there.
        self._origin_at = 0.0
        self._origin_busy: dict[str, float] = {}
        #: The busy cells the hooks hand out: CPU resource name -> job
        #: label -> ``_busy`` cell; station -> its airtime ``_busy`` cell.
        self._resource_busy: dict[str, dict[str, list[float]]] = {}
        self._station_busy: dict[str, list[float]] = {}
        #: Executed kernel handlers by :func:`~repro.sim.kernel.handler_key`.
        self._tally: dict[Any, int] = {}
        #: Sampler series keys, built once per node and per gauge.
        self._keys: dict[Any, Any] = {}
        self._last_sample_t = runtime.now
        self._sampling = False
        # All profiler accumulation is commutative (sums, counts, interval
        # unions), so concurrent same-instant charges are benign; the
        # sampler itself runs as an end-of-instant epilogue.
        self._cell = tracked_state(runtime, "prof", "accounting")  # repro: san-ok[SAN001]

    # ------------------------------------------------------------------
    # CPU hooks (repro.sim.resources)
    # ------------------------------------------------------------------

    def on_cpu_start(self, resource_name: str, label: str, service_s: float) -> list:
        """One job entered service on a CPU for ``service_s`` seconds; returns
        the node timeline's ``pending`` list, for later ``(start, service_s)``."""
        self._cell.note_write()
        node = _node_of(resource_name)
        timeline = self._cpu_timeline.get(node)
        if timeline is None:
            timeline = self._cpu_timeline[node] = BusyIntegrator()
        timeline.pending.append((self.runtime.now, service_s))
        return timeline.pending

    def on_cpu_end(self, resource_name: str, label: str, service_s: float) -> dict:
        """The job's service elapsed; charge it to the profile tree. Returns
        the resource's label -> ``[busy_s, completions]`` cells."""
        self._cell.note_write()
        cells = self._resource_busy.setdefault(resource_name, {})
        entry = cells.get(label)
        if entry is None:
            entry = cells[label] = self._busy.setdefault(
                (_node_of(resource_name), "cpu", label), [0.0, 0.0]
            )
        entry[0] += service_s
        entry[1] += 1.0
        return cells

    # ------------------------------------------------------------------
    # WLAN hook (repro.net.wlan)
    # ------------------------------------------------------------------

    def on_airtime(self, station: str, start: float, airtime_s: float) -> tuple[list, dict]:
        """``station`` occupies the shared channel for ``airtime_s``. Returns
        the channel's ``pending`` list and the station -> airtime cells."""
        self._cell.note_write()
        self._wlan_timeline.pending.append((start, airtime_s))
        try:
            entry = self._station_busy[station]
        except KeyError:
            entry = self._station_busy[station] = self._busy.setdefault(
                (station, "wlan", "airtime"), [0.0, 0.0]
            )
        entry[0] += airtime_s
        entry[1] += 1.0
        return self._wlan_timeline.pending, self._station_busy

    def event_begin(self, handle: EventHandle) -> None:
        """Count one executed handler, as the kernel's tally does inline."""
        key = handler_key(handle.callback)
        self._tally[key] = self._tally.get(key, 0) + 1

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
        """Executed handlers by qualified name, in first-seen order."""
        counts: dict[str, int] = {}
        for key, count in self._tally.items():
            name = key if isinstance(key, str) else getattr(key, "__qualname__", "method")
            counts[name] = counts.get(name, 0) + count
        return counts

    @property
    def events_profiled(self) -> int:
        return sum(sorted(self._tally.values()))

    def cpu_nodes(self) -> list[str]:
        return sorted(self._cpu_timeline)

    def cpu_busy(self, node: str) -> float:
        """CPU busy seconds of ``node`` in ``[0, now]`` (aggregate over cores)."""
        timeline = self._cpu_timeline.get(node)
        return timeline.busy_until(self.runtime.now) if timeline is not None else 0.0

    def cpu_utilization(self, node: str, since: float = 0.0) -> float:
        """Aggregate CPU busy share of ``node`` over ``[since, now]``, from
        0.0 or a :meth:`register_origin` instant.

        For multi-core nodes divide by the core count for per-core
        utilization (the paper's modules are all single-core).
        """
        if since == 0.0:
            before = 0.0
        elif since == self._origin_at:
            before = self._origin_busy.get(node, 0.0)
        else:
            raise ValueError(f"{since} is neither 0.0 nor the registered origin")
        window = self.runtime.now - since
        if window <= 0.0:
            return 0.0
        return (self.cpu_busy(node) - before) / window

    def wlan_utilization(self) -> float:
        """Channel airtime share over ``[0, now]``."""
        now = self.runtime.now
        return self._wlan_timeline.busy_until(now) / now if now > 0.0 else 0.0

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

    def register_origin(self) -> None:
        """Read every CPU timeline now, so :meth:`cpu_utilization` answers
        from this instant for the rest of the run (0.0 always does)."""
        self._origin_at = self.runtime.now
        self._origin_busy = {node: self.cpu_busy(node) for node in self._cpu_timeline}

    def _tick(self) -> None:
        # A replaced profiler (``runtime.prof`` cleared or swapped) stops.
        if self.runtime.prof is not self:
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
            busy = self.cpu_busy(name)
            if window > 0.0:
                util = (busy - self._sampled_cpu.get(name, 0.0)) / (window * cpu.servers)
            else:
                util = 0.0
            self._sampled_cpu[name] = busy
            keys = self._keys.get(name)
            if keys is None:
                keys = self._keys[name] = tuple(
                    metric_key(series, {"node": name})
                    for series in ("prof.cpu.util", "prof.cpu.queue_peak")
                )
            u[keys[0]] = round(util, 9)
            u[keys[1]] = float(cpu.take_queue_watermark())
            for component in node.components:
                gauges: Callable[[], dict[str, float]] | None = getattr(
                    component, "prof_gauges", None
                )
                if gauges is None:
                    continue
                for gauge_name in sorted(values := gauges()):
                    key = self._keys.get(at := (component.name, name, gauge_name))
                    if key is None:
                        key = self._keys[at] = metric_key(
                            f"prof.{gauge_name}",
                            {"component": component.name, "node": name},
                        )
                    u[key] = round(float(values[gauge_name]), 9)
        if getattr(runtime, "wlan", None) is not None and window > 0.0:
            busy = self._wlan_timeline.busy_until(now)
            u["prof.wlan.util"] = round((busy - self._sampled_wlan) / window, 9)
            self._sampled_wlan = busy
        # Sampling consumes the accounting accumulators and moves the
        # window origin the next difference is measured from.
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
    kernel.tally = profiler._tally
    profiler.start_sampling()
    return profiler
