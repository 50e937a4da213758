"""The sim-time profiler: busy-time accounting and utilization timelines.

Everything here runs *inside* the simulation but measures only virtual
time, so a profile is a pure function of (scenario, seed): two runs with
the same inputs produce byte-identical profiles, and the schedule
sanitizer's perturbation replay (:mod:`repro.san`) must not change them
either. Three design points make that hold:

* **Commutative accumulation.** Busy time is summed per
  ``(node, domain, operation)`` key; sums and counts are invariant to
  the order same-instant events fire in.
* **Readings from the resources' own totals.** A CPU's busy time is
  ``stats.busy_time`` less the unelapsed part of its jobs in service; the
  channel's is ``total_airtime`` less its backlog. Each is read at *now*,
  minus its value at the bind and never below the previous reading, so a
  node's busy time up to *t* never exceeds ``servers * t`` and a window's
  busy time is the difference of two readings.
* **Epilogue sampling.** The utilization sampler runs as a kernel
  *epilogue* (after every normal event of its instant, perturbed or
  not), so the state it snapshots — queue watermarks, broker occupancy —
  is the end-of-instant state under every tie-break schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.metrics import metric_key
from repro.sim.events import EventHandle
from repro.sim.kernel import handler_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime

__all__ = ["PROF_SAMPLE_EVENT", "Profiler", "enable_profiling"]

#: Trace event name under which utilization samples are recorded.
PROF_SAMPLE_EVENT = "prof.sample"

#: Epilogue priority of the sampler: after WLAN flushes (0) and chaos
#: fault application (1), so a sample sees the instant fully settled.
_SAMPLER_PRIORITY = 2


@dataclass(slots=True)
class _Timeline:
    """A CPU's or the channel's running total at the bind (``base``) and the
    previous reading (``last``; readings never decrease)."""

    resource: Any
    base: float
    last: float = 0.0


def _cpu_total(cpu: Any, now: float) -> float:
    """Seconds ``cpu`` has served by ``now``: all it granted, less the unelapsed."""
    busy = cpu.stats.busy_time
    for end in cpu.ends_in_service:
        if end > now:
            busy -= end - now
    return busy


def _node_of(resource_name: str) -> str:
    """``module-e.cpu`` -> ``module-e`` (bare names pass through)."""
    return resource_name.removesuffix(".cpu")


class Profiler:
    """Hierarchical busy-time profile plus sampled utilization timelines.

    Attached to a runtime as ``runtime.prof`` by :func:`enable_profiling`.
    The charging API is :meth:`on_cpu_start` / :meth:`on_cpu_end` (one CPU
    service), :meth:`on_airtime` (one channel occupation) and
    :meth:`event_begin` (one kernel handler). A CPU or WLAN site calls its
    hooks once, to bind, and then charges the cells they returned inline;
    it calls them again for another ``runtime.prof``, and every time while
    ``runtime.san`` is set (the sanitizer sees each ``prof:accounting``
    write). The kernel's handlers reach :attr:`_tally` through
    :meth:`SimKernel.fold_tally <repro.sim.kernel.SimKernel.fold_tally>`.
    """

    def __init__(self, runtime: "Runtime", interval_s: float = 1.0) -> None:
        from repro.runtime.state import tracked_state

        self.runtime = runtime
        self.interval_s = float(interval_s)
        self.samples = 0
        #: (node, domain, operation) -> [busy_s, completions]; charged at
        #: grant completion, so the tree covers finished work only.
        self._busy: dict[tuple[str, str, str], list[float]] = {}
        #: Per-node CPU busy timelines (a node's one CPU, aggregate over
        #: servers), and the channel's once a grant has bound it.
        self._cpu_timeline: dict[str, _Timeline] = {}
        self._wlan_timeline: _Timeline | None = None
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
        # All profiler accumulation is commutative (sums and counts), so
        # concurrent same-instant charges are benign; the sampler itself
        # runs as an end-of-instant epilogue.
        self._cell = tracked_state(runtime, "prof", "accounting")  # repro: san-ok[SAN001]

    # ------------------------------------------------------------------
    # CPU hooks (repro.sim.resources)
    # ------------------------------------------------------------------

    def on_cpu_start(self, cpu: Any, label: str, service_s: float) -> None:
        """A job entered service on ``cpu`` (its end instant already kept);
        the first call binds the node's timeline at the CPU's total now."""
        self._cell.note_write()
        node = _node_of(cpu.name)
        if node not in self._cpu_timeline:
            self._cpu_timeline[node] = _Timeline(cpu, _cpu_total(cpu, self.runtime.now))

    def on_cpu_end(self, cpu: Any, label: str, service_s: float) -> dict:
        """The job's service elapsed; charge it to the profile tree. Returns
        the resource's label -> ``[busy_s, completions]`` cells."""
        self._cell.note_write()
        cells = self._resource_busy.setdefault(cpu.name, {})
        entry = cells.get(label)
        if entry is None:
            entry = cells[label] = self._busy.setdefault(
                (_node_of(cpu.name), "cpu", label), [0.0, 0.0]
            )
        entry[0] += service_s
        entry[1] += 1.0
        return cells

    # ------------------------------------------------------------------
    # WLAN hook (repro.net.wlan)
    # ------------------------------------------------------------------

    def on_airtime(self, medium: Any, station: str, airtime_s: float) -> dict:
        """``station`` occupied ``medium``'s channel for ``airtime_s``; the
        first call binds the channel timeline. Returns the station cells."""
        self._cell.note_write()
        if self._wlan_timeline is None:  # serial grants: unelapsed is backlog
            busy = medium.total_airtime - medium.channel_backlog
            self._wlan_timeline = _Timeline(medium, busy)
        try:
            entry = self._station_busy[station]
        except KeyError:
            entry = self._station_busy[station] = self._busy.setdefault(
                (station, "wlan", "airtime"), [0.0, 0.0]
            )
        entry[0] += airtime_s
        entry[1] += 1.0
        return self._station_busy

    def event_begin(self, handle: EventHandle) -> None:
        """Count one executed handler, as the kernel's fold does."""
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
        self.runtime.kernel.fold_tally()
        counts: dict[str, int] = {}
        for key, count in self._tally.items():
            name = key if isinstance(key, str) else getattr(key, "__qualname__", "method")
            counts[name] = counts.get(name, 0) + count
        return counts

    @property
    def events_profiled(self) -> int:
        self.runtime.kernel.fold_tally()
        return sum(sorted(self._tally.values()))

    def cpu_nodes(self) -> list[str]:
        return sorted(self._cpu_timeline)

    def cpu_busy(self, node: str) -> float:
        """CPU busy seconds of ``node`` (all cores) since the bind."""
        return self._cpu_read(node, self.runtime.now)

    def _cpu_read(self, node: str, now: float) -> float:
        timeline = self._cpu_timeline.get(node)
        if timeline is None:
            return 0.0
        busy = _cpu_total(timeline.resource, now) - timeline.base
        if busy > timeline.last:
            timeline.last = busy
        return timeline.last

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

    def wlan_busy(self) -> float:
        """Channel busy seconds since the bind."""
        timeline = self._wlan_timeline
        if timeline is None:
            return 0.0
        medium = timeline.resource
        busy = medium.total_airtime - medium.channel_backlog - timeline.base
        if busy > timeline.last:
            timeline.last = busy
        return timeline.last

    def wlan_utilization(self) -> float:
        """Channel airtime share over ``[0, now]``."""
        now = self.runtime.now
        return self.wlan_busy() / now if now > 0.0 else 0.0

    # ------------------------------------------------------------------
    # Sampling (utilization timeline into the trace)
    # ------------------------------------------------------------------

    def start_sampling(self) -> None:
        """Arm the periodic end-of-instant sampler."""
        if self._sampling or self.interval_s <= 0:
            return
        self._sampling = True
        self.runtime.kernel.schedule_epilogue(
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
            busy = self._cpu_read(name, now)
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
            busy = self.wlan_busy()
            u["prof.wlan.util"] = round((busy - self._sampled_wlan) / window, 9)
            self._sampled_wlan = busy
        # Sampling folds the kernel's handlers into the tally and moves the
        # window origin the next difference is measured from.
        runtime.kernel.fold_tally()
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
    kernel.fold_tally()  # what ran so far is counted by the previous tally
    kernel.tally = profiler._tally
    profiler.start_sampling()
    return profiler
