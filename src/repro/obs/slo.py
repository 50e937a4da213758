"""Online SLO engine: deadline conformance, burn-rate alerts, drift watch.

The latency analyzer proves deadlines *before* a run and the trace
tooling measures them *after*; this module watches them *during*. The
engine needs no spans: a sensor reports each sample it takes
(:meth:`SloEngine.sensed`) and a flow's sink task each record it has
processed (:meth:`SloEngine.completed`), whose age ``now - sensed_at`` is
the paper's latency "from the Sensing" (§V-B). So it sees every record
whatever the span sampling stride, with observability on or off, and
everything it does is driven by sim time — two runs of the same
(scenario, seed) produce byte-identical SLO records.

Per declared flow (every task with a ``deadline_ms`` in the recipe):

* **latency conformance** — the age of each record the sink processed,
  kept in a run-total :class:`~repro.util.stats.LatencyRecorder` (the
  store ``repro trace --summary`` reads, so both report the same
  quantiles) and in the long burn window's buckets (the status p95);
* **pending-overdue tracking** — the part a completed-latency check
  cannot see. When a root of a flow whose path always forwards records
  senses a sample, a sim timer is armed at ``sensed_at + deadline``;
  if the sink has not processed that sample by then, that is a deadline
  violation *even though no latency sample ever shows it* (the failover
  scenario's crash window produces exactly this: sensed records that
  never reach ``train``). Flows whose path crosses a conditional
  operator (``command``, ``window``, ...) legitimately drop records and
  are measured latency-only;
* **multi-window burn-rate alerting** — SRE-style: the bad fraction of
  the error budget over the :data:`SHORT_WINDOW_S` (5 s) and
  :data:`LONG_WINDOW_S` (25 s) sliding windows; ``page`` when both burn
  at :data:`PAGE_BURN` (10x) or more, ``warn`` on a long-window burn of
  :data:`WARN_BURN` (2x), state transitions emitted as ``slo.alert``
  trace records with sim-time anchors;
* **cost-model drift watch** — the runtime counterpart of the RCP230
  drift gate, on the same :func:`repro.lint.dataflow.cost_drift`:
  observed per-op busy means (from ``repro.prof``) compared against the
  runtime's ``cost_model`` on every status tick;
* **operator export** — a compact status snapshot published retained on
  ``ifot/ctl/status/slo`` (the healing plane and future admission
  control subscribe there) and emitted as ``slo.status`` records.

Findings surface as the same :class:`~repro.util.validate.Diagnostic`
currency every static checker uses, under the ``SLO3xx`` rule family
registered in the unified catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigurationError
from repro.obs.metrics import HISTOGRAM_MAX_SAMPLES
from repro.util.stats import LatencyRecorder, percentile
from repro.util.validate import Diagnostic, Rule, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.recipe import Recipe
    from repro.runtime.base import Runtime

__all__ = [
    "SLO_RULES",
    "SLO_ALERT_EVENT",
    "SLO_VIOLATION_EVENT",
    "SLO_DRIFT_EVENT",
    "SLO_STATUS_EVENT",
    "SLO_STATUS_TOPIC",
    "FlowSlo",
    "SloEngine",
    "policy_from_recipe",
    "enable_slo",
    "format_flow_summary",
]

#: Trace events the engine emits (all with source ``"slo"``).
SLO_ALERT_EVENT = "slo.alert"
SLO_VIOLATION_EVENT = "slo.violation"
SLO_DRIFT_EVENT = "slo.drift"
SLO_STATUS_EVENT = "slo.status"

#: Retained control topic carrying the engine's status snapshots.
SLO_STATUS_TOPIC = "ifot/ctl/status/slo"


#: The SLO rule family (rendered into the unified lint catalog).
SLO_RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "SLO300",
            Severity.ERROR,
            "Deadline burn page: a flow's error-budget burn rate exceeded "
            "the page threshold on both the short and the long window "
            "during the run.",
        ),
        Rule(
            "SLO301",
            Severity.WARNING,
            "Deadline burn warning: a flow sustained a long-window "
            "error-budget burn above the warn threshold without paging.",
        ),
        Rule(
            "SLO302",
            Severity.WARNING,
            "Deadline violations observed (late or overdue records) without "
            "the burn rate ever reaching an alert threshold.",
        ),
        Rule(
            "SLO310",
            Severity.WARNING,
            "Online cost-model drift: an op's observed mean busy time "
            "diverged from the active cost model beyond tolerance while "
            "the scenario ran (runtime counterpart of RCP230).",
        ),
        Rule(
            "SLO320",
            Severity.WARNING,
            "Metric cardinality admission-stop engaged: the metrics "
            "registry hit its series cap and dropped new series.",
        ),
    )
}

#: The SLO target: 99% of records meet their declared deadline.
TARGET = 0.99

#: Width of one bucket of the burn windows.
BUCKET_S = 1.0
#: The two burn windows: ``page`` needs both above :data:`PAGE_BURN`,
#: ``warn`` the long one above :data:`WARN_BURN` (in error budgets).
SHORT_WINDOW_S = 5.0
LONG_WINDOW_S = 25.0
PAGE_BURN = 10.0
WARN_BURN = 2.0
#: Violations kept verbatim for the report (all are counted and traced).
MAX_VIOLATION_LOG = 256


@dataclass(frozen=True)
class FlowSlo:
    """The objective for one deadline-bearing flow.

    ``flow`` is the sink task id; ``roots`` the source task ids whose
    samples feed it; ``pending`` arms overdue timers as a root senses a
    sample (sound only when the root → sink path always forwards: every
    operator on it declares
    ``forwards_every_record``; conditional ones — ``command`` rules,
    ``window`` batching, ``filter``/``throttle``/``predict``/``stat``/
    ``mix`` — legitimately drop or fold records, and flows crossing them
    are measured latency-only).
    """

    flow: str
    deadline_s: float
    roots: tuple[str, ...] = ()
    pending: bool = False

    def __post_init__(self) -> None:
        if not self.deadline_s > 0:
            raise ConfigurationError(
                f"flow {self.flow!r}: deadline_s must be positive"
            )


def _trace_roots(recipe: "Recipe", sink: str) -> tuple[set[str], bool]:
    """Source task ids upstream of ``sink`` + whether any hop can drop."""
    from repro.core.operators import operator_class  # late: core imports obs

    roots: set[str] = set()
    conditional = False
    seen: set[str] = set()
    stack = [sink]
    while stack:
        task_id = stack.pop()
        if task_id in seen:
            continue
        seen.add(task_id)
        task = recipe.tasks[task_id]
        if (
            task_id != sink
            and not operator_class(task.operator).forwards_every_record
        ):
            conditional = True
        upstream = recipe.upstream_of(task_id)
        if not upstream:
            roots.add(task_id)
        stack.extend(sorted(upstream))
    return roots, conditional


def policy_from_recipe(recipe: "Recipe") -> list[FlowSlo]:
    """One :class:`FlowSlo` per task declaring ``deadline_ms``."""
    flows: list[FlowSlo] = []
    for task_id in sorted(recipe.tasks):
        task = recipe.tasks[task_id]
        if task.deadline_ms is None:
            continue
        roots, conditional = _trace_roots(recipe, task_id)
        flows.append(
            FlowSlo(
                flow=task_id,
                deadline_s=task.deadline_ms / 1000.0,
                roots=tuple(sorted(roots)),
                pending=not conditional,
            )
        )
    return flows


class _Bucket:
    __slots__ = ("bad", "good", "latencies")

    def __init__(self) -> None:
        self.bad = self.good = 0
        self.latencies: list[float] = []


class _BurnWindow:
    """Good/bad event counts and completed latencies in :data:`BUCKET_S`
    buckets, reaching back :data:`LONG_WINDOW_S` (bounded ring)."""

    __slots__ = ("_buckets",)

    horizon = int(LONG_WINDOW_S / BUCKET_S) + 1

    def __init__(self) -> None:
        self._buckets: dict[int, _Bucket] = {}

    def bucket(self, t: float) -> _Bucket:
        index = int(t // BUCKET_S)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = _Bucket()
            floor = index - self.horizon
            for key in [k for k in self._buckets if k <= floor]:
                del self._buckets[key]
        return bucket

    def _live(self, now: float, window_s: float) -> list[_Bucket]:
        current = int(now // BUCKET_S)
        first = int((now - window_s) // BUCKET_S) + 1
        return [b for i, b in self._buckets.items() if first <= i <= current]

    def window(self, now: float, window_s: float) -> tuple[int, int]:
        """``(bad, total)`` over the window ending at ``now``."""
        live = self._live(now, window_s)
        bad = sum(b.bad for b in live)
        return bad, bad + sum(b.good for b in live)

    def p95(self, now: float) -> float:
        """95th-percentile latency over the long window; 0.0 when empty."""
        samples = [x for b in self._live(now, LONG_WINDOW_S) for x in b.latencies]
        return percentile(samples, 95) if samples else 0.0

    def __len__(self) -> int:
        return len(self._buckets)


class SloEngine:
    """Streaming SLO evaluation attached to a runtime as ``runtime.slo``.

    Pure consumer of the sensed/completed reports and the prof stream:
    it never draws from the runtime RNG or id sequences, and only *adds*
    timer events, so the application's own trace records are unchanged
    by its presence (the
    equivalence tests assert exactly that). The one deliberate exception
    is the retained status ``publisher`` — real MQTT traffic that shares
    the simulated WLAN with the application, exactly like the management
    plane's heartbeats; pass ``publisher=None`` for a fully passive
    engine.
    """

    def __init__(
        self,
        runtime: "Runtime",
        flows: list[FlowSlo],
        status_interval_s: float = 5.0,
        publisher: Callable[[str, dict[str, Any]], None] | None = None,
    ) -> None:
        self.runtime = runtime
        self.flows: dict[str, FlowSlo] = {}
        self._root_flows: dict[str, list[str]] = {}
        for flow in flows:
            if flow.flow in self.flows:
                raise ConfigurationError(f"duplicate SLO flow {flow.flow!r}")
            self.flows[flow.flow] = flow
            if flow.pending:
                for root in flow.roots:
                    self._root_flows.setdefault(root, []).append(flow.flow)
        self.status_interval_s = status_interval_s
        self._publisher = publisher

        # Per-flow streaming state.
        self.latencies = {
            f: LatencyRecorder(f, cap=HISTOGRAM_MAX_SAMPLES) for f in self.flows
        }
        self._events = {f: _BurnWindow() for f in self.flows}
        self.good = {f: 0 for f in self.flows}
        self.violations = {f: 0 for f in self.flows}
        self.overdue = {f: 0 for f in self.flows}
        self.state = {f: "ok" for f in self.flows}
        self.paged = {f: False for f in self.flows}
        self.warned = {f: False for f in self.flows}
        self.first_page_at: dict[str, float] = {}
        self.alerts: list[dict[str, Any]] = []
        self.violation_log: list[dict[str, Any]] = []
        self.drift: dict[str, dict[str, Any]] = {}
        self.status_ticks = 0
        self.node_watermarks: dict[str, dict[str, float]] = {}

        # Sample bookkeeping, all bounded: armed overdue timers, and
        # samples already counted overdue (purged past the pending+window
        # horizon; late completions must not double-count).
        self._pending: dict[tuple[str, str], Any] = {}
        self._expired: dict[tuple[str, str], float] = {}
        max_deadline = max(
            (f.deadline_s for f in self.flows.values()), default=0.0
        )
        self._horizon_s = max_deadline + LONG_WINDOW_S + 2.0 * status_interval_s

        # Each node's CPU busy at the previous status tick, read from
        # ``_cpu_read_of``: a tick's watermark window is the difference.
        self._cpu_read_of = getattr(runtime, "prof", None)
        self._cpu_read: dict[str, float] = {}
        if self._cpu_read_of is not None:
            for name in sorted(getattr(runtime, "nodes", None) or {}):
                self._cpu_read[name] = self._cpu_read_of.cpu_busy(name)
        if status_interval_s > 0:
            runtime.call_later(status_interval_s, self._tick)

        # Optional: surface engine state through the shared metrics
        # registry so the telemetry exporters and `repro top` see it.
        obs = getattr(runtime, "obs", None)
        registry = obs.metrics if obs is not None else None
        if registry is not None:
            for flow_id in sorted(self.flows):
                registry.counter("slo.flow.good", flow=flow_id)
                registry.counter("slo.flow.violations", flow=flow_id)
                registry.gauge(
                    "slo.flow.burn_long",
                    fn=lambda f=flow_id: self.burn(f)[1],
                    flow=flow_id,
                )
        self._registry = registry

    # ------------------------------------------------------------------
    # Record reports
    # ------------------------------------------------------------------

    def sensed(self, task: str, sample: str, sensed_at: float) -> None:
        """Source ``task`` sensed ``sample``: arm the overdue timer of
        every pending flow it roots."""
        for flow_id in self._root_flows.get(task, ()):
            flow = self.flows[flow_id]
            deadline_at = sensed_at + flow.deadline_s
            self._pending[flow_id, sample] = self.runtime.call_later(
                max(deadline_at - self.runtime.now, 0.0),
                self._overdue, flow, sample, deadline_at,
            )

    def completed(self, task: str, sample: str, sensed_at: float) -> None:
        """``task`` processed a record sensed at ``sensed_at``; when it is
        a flow's sink, the record's age is that flow's latency sample."""
        flow = self.flows.get(task)
        if flow is not None:
            now = self.runtime.now
            self._resolve(flow, sample, now - sensed_at, now)

    def _resolve(
        self, flow: FlowSlo, sample: str, latency: float, now: float
    ) -> None:
        key = (flow.flow, sample)
        handle = self._pending.pop(key, None)
        if handle is not None:
            handle.cancel()
        self.latencies[flow.flow].add(latency)
        bucket = self._events[flow.flow].bucket(now)
        bucket.latencies.append(latency)
        if key in self._expired:
            # Already counted overdue when the timer fired; record the
            # eventual latency for the distribution but not the budget.
            return
        if latency <= flow.deadline_s + 1e-9:
            bucket.good += 1
            self.good[flow.flow] += 1
            if self._registry is not None:
                self._registry.counter("slo.flow.good", flow=flow.flow).inc()
        else:
            bucket.bad += 1
            self._violation(flow, sample, now, kind="late", latency=latency)
        self._evaluate(flow, now)

    def _overdue(self, flow: FlowSlo, sample: str, deadline_at: float) -> None:
        key = (flow.flow, sample)
        if self._pending.pop(key, None) is None:
            return  # resolved in the meantime
        self._expired[key] = deadline_at
        self.overdue[flow.flow] += 1
        self._events[flow.flow].bucket(deadline_at).bad += 1
        self._violation(flow, sample, deadline_at, kind="overdue", latency=None)
        self._evaluate(flow, deadline_at)

    def _violation(
        self,
        flow: FlowSlo,
        sample: str,
        now: float,
        kind: str,
        latency: float | None,
    ) -> None:
        self.violations[flow.flow] += 1
        if self._registry is not None:
            self._registry.counter("slo.flow.violations", flow=flow.flow).inc()
        entry: dict[str, Any] = {
            "t": round(now, 9),
            "flow": flow.flow,
            "sample": sample,
            "kind": kind,
            "deadline_s": flow.deadline_s,
        }
        if latency is not None:
            entry["latency_s"] = round(latency, 9)
        if len(self.violation_log) < MAX_VIOLATION_LOG:
            self.violation_log.append(entry)
        self.runtime.tracer.emit(
            now, "slo", SLO_VIOLATION_EVENT, **{k: v for k, v in entry.items() if k != "t"}
        )

    # ------------------------------------------------------------------
    # Burn-rate alerting
    # ------------------------------------------------------------------

    def burn(self, flow_id: str, now: float | None = None) -> tuple[float, float]:
        """``(short, long)`` burn rates for one flow at ``now``."""
        if now is None:
            now = self.runtime.now
        events = self._events[flow_id]
        budget = 1.0 - TARGET
        bad_s, total_s = events.window(now, SHORT_WINDOW_S)
        bad_l, total_l = events.window(now, LONG_WINDOW_S)
        short = bad_s / total_s / budget if total_s else 0.0
        long = bad_l / total_l / budget if total_l else 0.0
        return short, long

    def _evaluate(self, flow: FlowSlo, now: float) -> None:
        short, long = self.burn(flow.flow, now)
        if short >= PAGE_BURN and long >= PAGE_BURN:
            state = "page"
        elif long >= WARN_BURN:
            state = "warn"
        else:
            state = "ok"
        previous = self.state[flow.flow]
        if state == previous:
            return
        self.state[flow.flow] = state
        if state == "page":
            self.paged[flow.flow] = True
            self.first_page_at.setdefault(flow.flow, now)
        elif state == "warn":
            self.warned[flow.flow] = True
        alert = {
            "t": round(now, 9),
            "flow": flow.flow,
            "state": state,
            "from": previous,
            "burn_short": round(short, 6),
            "burn_long": round(long, 6),
        }
        self.alerts.append(alert)
        self.runtime.tracer.emit(
            now,
            "slo",
            SLO_ALERT_EVENT,
            flow=flow.flow,
            state=state,
            burn_short=alert["burn_short"],
            burn_long=alert["burn_long"],
        )

    # ------------------------------------------------------------------
    # Status tick: drift watch, watermarks, retained publication
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        now = self.runtime.now
        self.status_ticks += 1
        self._check_drift(now)
        self._update_watermarks(now)
        status = self.status_snapshot(now)
        self.runtime.tracer.emit(now, "slo", SLO_STATUS_EVENT, **status)
        if self._publisher is not None:
            self._publisher(SLO_STATUS_TOPIC, status)
        self._purge(now)
        self.runtime.call_later(self.status_interval_s, self._tick)

    def _check_drift(self, now: float) -> None:
        profiler = getattr(self.runtime, "prof", None)
        model = getattr(self.runtime, "cost_model", None)
        if profiler is None or model is None or not getattr(model, "ops", None):
            return
        from repro.lint.dataflow import cost_drift

        for op, (busy_s, count) in profiler.cpu_busy_by_op().items():
            if op in self.drift:
                continue
            found = cost_drift(model, op, busy_s, count)
            if found is None or found.predicted_s is None:
                continue  # RCP231 covers unmodeled ops statically
            finding = {
                "t": round(now, 9),
                "op": op,
                "observed_s": round(found.observed_s, 9),
                "predicted_s": round(found.predicted_s, 9),
                "drift": round(found.drift, 6),
                "count": int(count),
            }
            self.drift[op] = finding
            self.runtime.tracer.emit(
                now,
                "slo",
                SLO_DRIFT_EVENT,
                op=op,
                drift=finding["drift"],
                observed_s=finding["observed_s"],
                predicted_s=finding["predicted_s"],
                count=finding["count"],
            )

    def _update_watermarks(self, now: float) -> None:
        profiler = getattr(self.runtime, "prof", None)
        if profiler is not self._cpu_read_of:  # a new profiler counts from zero
            self._cpu_read_of, self._cpu_read = profiler, {}
        nodes = getattr(self.runtime, "nodes", None) or {}
        since = max(0.0, now - self.status_interval_s)
        for name in sorted(nodes):
            node = nodes[name]
            cpu = getattr(node, "cpu", None)
            if cpu is None:
                continue
            mark = self.node_watermarks.setdefault(
                name, {"cpu_util": 0.0, "queue_depth": 0.0}
            )
            if profiler is not None and now > since:
                busy = profiler.cpu_busy(name)
                util = (busy - self._cpu_read.get(name, 0.0)) / (now - since)
                self._cpu_read[name] = busy
                if util > mark["cpu_util"]:
                    mark["cpu_util"] = round(util, 9)
            depth = float(cpu.queue_length)
            if depth > mark["queue_depth"]:
                mark["queue_depth"] = depth

    def _purge(self, now: float) -> None:
        horizon = now - self._horizon_s
        for key, at in [(k, a) for k, a in self._expired.items() if a < horizon]:
            del self._expired[key]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def status_snapshot(self, now: float | None = None) -> dict[str, Any]:
        """Compact operator-facing snapshot (published retained)."""
        if now is None:
            now = self.runtime.now
        flows: dict[str, Any] = {}
        for flow_id in sorted(self.flows):
            short, long = self.burn(flow_id, now)
            flows[flow_id] = {
                "state": self.state[flow_id],
                "burn_short": round(short, 6),
                "burn_long": round(long, 6),
                "good": self.good[flow_id],
                "violations": self.violations[flow_id],
                "overdue": self.overdue[flow_id],
                "p95_ms": round(self._events[flow_id].p95(now) * 1000.0, 3),
            }
        return {
            "t": round(now, 9),
            "flows": flows,
            "nodes": {
                name: dict(mark)
                for name, mark in sorted(self.node_watermarks.items())
            },
        }

    def report(self) -> dict[str, Any]:
        """Full end-of-run report (the ``repro slo --format json`` body)."""
        flows: dict[str, Any] = {}
        for flow_id in sorted(self.flows):
            flow = self.flows[flow_id]
            recorder = self.latencies[flow_id]
            entry: dict[str, Any] = {
                "deadline_ms": round(flow.deadline_s * 1000.0, 3),
                "target": TARGET,
                "pending_tracked": flow.pending,
                "roots": list(flow.roots),
                "count": recorder.count,
                "good": self.good[flow_id],
                "violations": self.violations[flow_id],
                "overdue": self.overdue[flow_id],
                "state": self.state[flow_id],
                "paged": self.paged[flow_id],
                "warned": self.warned[flow_id],
            }
            if recorder.count:
                p50, p95, p99 = recorder.percentiles(50, 95, 99)
                entry.update(
                    {
                        "p50_ms": round(p50 * 1000.0, 3),
                        "p95_ms": round(p95 * 1000.0, 3),
                        "p99_ms": round(p99 * 1000.0, 3),
                        "max_ms": round(recorder.maximum * 1000.0, 3),
                    }
                )
            if flow_id in self.first_page_at:
                entry["first_page_at"] = round(self.first_page_at[flow_id], 9)
            flows[flow_id] = entry
        return {
            "flows": flows,
            "alerts": list(self.alerts),
            "violation_log": list(self.violation_log),
            "drift": {op: dict(self.drift[op]) for op in sorted(self.drift)},
            "watermarks": {
                name: dict(mark)
                for name, mark in sorted(self.node_watermarks.items())
            },
        }

    def diagnostics(self) -> list[Diagnostic]:
        """Findings as the shared :class:`Diagnostic` currency."""
        out: list[Diagnostic] = []
        for flow_id in sorted(self.flows):
            where = f"flow {flow_id}"
            if self.paged[flow_id]:
                rule = SLO_RULES["SLO300"]
                at = self.first_page_at.get(flow_id, 0.0)
                out.append(
                    rule.diagnostic(
                        message=(
                            f"deadline burn paged at t={at:.3f}s: "
                            f"{self.violations[flow_id]} violation(s) "
                            f"({self.overdue[flow_id]} overdue) against "
                            f"deadline {self.flows[flow_id].deadline_s * 1000:.0f} ms"
                        ),
                        where=where,
                        hint="inspect slo.alert/slo.violation trace records",
                    )
                )
            elif self.warned[flow_id]:
                rule = SLO_RULES["SLO301"]
                out.append(
                    rule.diagnostic(
                        message=(
                            f"long-window burn exceeded warn threshold "
                            f"({self.violations[flow_id]} violation(s))"
                        ),
                        where=where,
                    )
                )
            elif self.violations[flow_id]:
                rule = SLO_RULES["SLO302"]
                out.append(
                    rule.diagnostic(
                        message=(
                            f"{self.violations[flow_id]} deadline violation(s) "
                            "observed without a sustained burn"
                        ),
                        where=where,
                    )
                )
        for op in sorted(self.drift):
            finding = self.drift[op]
            rule = SLO_RULES["SLO310"]
            out.append(
                rule.diagnostic(
                    message=(
                        f"cost-model drift {finding['drift']:+.0%} at "
                        f"t={finding['t']:.3f}s: observed "
                        f"{finding['observed_s'] * 1e3:.3f} ms/op vs model "
                        f"{finding['predicted_s'] * 1e3:.3f} ms/op "
                        f"({finding['count']} invocations)"
                    ),
                    where=f"op {op}",
                    hint="recalibrate the cost model",
                )
            )
        if self._registry is not None and self._registry.dropped_series:
            rule = SLO_RULES["SLO320"]
            out.append(
                rule.diagnostic(
                    message=(
                        f"metrics registry dropped {self._registry.dropped_series} "
                        f"series past its cap of {self._registry.max_series} "
                        f"(first: {self._registry.first_dropped_key!r})"
                    ),
                    where="metrics registry",
                    hint="reduce label cardinality or raise max_series",
                )
            )
        return out


def enable_slo(
    runtime: "Runtime",
    recipe: "Recipe | None" = None,
    flows: list[FlowSlo] | None = None,
    cluster: Any | None = None,
) -> SloEngine:
    """Install the SLO engine on ``runtime`` (idempotent).

    The policy comes from ``flows`` when given, else is derived from
    ``recipe``'s ``deadline_ms`` declarations. With ``cluster`` the
    engine publishes its status snapshots retained on
    ``ifot/ctl/status/slo`` through the management module's client.
    """
    if runtime.slo is not None:
        return runtime.slo
    if flows is None:
        if recipe is None:
            raise ConfigurationError("enable_slo needs a recipe or explicit flows")
        flows = policy_from_recipe(recipe)
    publisher = None
    if cluster is not None:
        client = cluster.management.module.client

        def publisher(topic: str, payload: dict[str, Any]) -> None:
            client.publish(topic, payload, retain=True)

    engine = SloEngine(runtime, flows, publisher=publisher)
    runtime.slo = engine
    return engine


def format_flow_summary(
    flows: dict[str, dict[str, Any]],
    deadlines_ms: dict[str, float] | None = None,
) -> str:
    """One-screen per-flow latency table with SLO verdicts.

    ``flows`` is the :func:`~repro.obs.breakdown.flow_latency_summary` shape:
    ``{stage: {count, p50_ms, p95_ms, p99_ms, max_ms}}``. When a flow
    has a declared deadline, a verdict column compares its observed max
    against it.
    """
    deadlines_ms = deadlines_ms or {}
    header = (
        f"{'flow':<20} {'count':>7} {'p50_ms':>10} {'p95_ms':>10} "
        f"{'p99_ms':>10} {'max_ms':>10} {'deadline':>10}  verdict"
    )
    lines = [header, "-" * len(header)]
    for stage in sorted(flows):
        row = flows[stage]
        deadline = deadlines_ms.get(stage)
        if deadline is None:
            deadline_text, verdict = "-", "-"
        elif row["max_ms"] <= deadline:
            deadline_text = f"{deadline:.0f}"
            verdict = f"OK ({row['max_ms'] / deadline:.1%} of budget)"
        else:
            deadline_text = f"{deadline:.0f}"
            verdict = f"VIOLATED (+{row['max_ms'] - deadline:.1f} ms)"
        lines.append(
            f"{stage:<20} {row['count']:>7} {row['p50_ms']:>10.3f} "
            f"{row['p95_ms']:>10.3f} {row['p99_ms']:>10.3f} "
            f"{row['max_ms']:>10.3f} {deadline_text:>10}  {verdict}"
        )
    return "\n".join(lines)
