"""Online SLO engine: deadline conformance, burn-rate alerts, drift watch.

PR 9's latency analyzer proves deadlines *before* a run and the trace
tooling measures them *after*; this module watches them *during*. The
engine consumes finished spans live from the runtime's ObsState (whether
or not the trace stores them), so it works at benchmark scale, and
everything it does is driven by sim time — two runs of the same
(scenario, seed) produce byte-identical SLO records.

Per declared flow (every task with a ``deadline_ms`` in the recipe):

* **latency conformance** — end-to-end latency of each completed trace,
  folded into a run-total :class:`~repro.obs.sketch.LatencySketch` and a
  sliding :class:`~repro.obs.sketch.WindowedSketch`;
* **pending-overdue tracking** — the part a completed-latency check
  cannot see. When a root span of a flow whose path always forwards
  records appears, a sim timer is armed at ``root.start + deadline``;
  if the sink has not completed the trace by then, that is a deadline
  violation *even though no latency sample ever shows it* (the failover
  scenario's crash window produces exactly this: sensed records that
  never reach ``train``). Flows whose path crosses a conditional
  operator (``command``, ``window``, ...) legitimately drop records and
  are measured latency-only;
* **multi-window burn-rate alerting** — SRE-style: the bad fraction of
  the error budget over a short and a long sliding window; ``page``
  when both windows burn fast, ``warn`` on a sustained long-window
  burn, state transitions emitted as ``slo.alert`` trace records with
  sim-time anchors;
* **cost-model drift watch** — the runtime counterpart of the RCP230
  baseline gate: observed per-op busy means (from ``repro.prof``)
  compared against the active cost model on every status tick;
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
from repro.obs.context import SPAN_EVENT
from repro.obs.sketch import LatencySketch, WindowedSketch
from repro.util.validate import Diagnostic, Rule, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.recipe import Recipe
    from repro.runtime.base import Runtime
    from repro.sim.trace import TraceRecord

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
            "Deadline violations observed (late or overdue traces) without "
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

#: Default SLO target: 99% of records meet their declared deadline.
DEFAULT_TARGET = 0.99


@dataclass(frozen=True)
class FlowSlo:
    """The objective for one deadline-bearing flow.

    ``flow`` is the sink task id (the stage label of its spans);
    ``roots`` the source task ids whose spans open the flow's traces;
    ``pending`` arms overdue timers on root arrival (sound only when the
    root → sink path always forwards: every operator on it declares
    ``forwards_every_record``; conditional ones — ``command`` rules,
    ``window`` batching, ``filter``/``throttle``/``predict``/``stat``/
    ``mix`` — legitimately drop or fold records, and flows crossing them
    are measured latency-only).
    """

    flow: str
    deadline_s: float
    roots: tuple[str, ...] = ()
    pending: bool = False
    target: float = DEFAULT_TARGET

    def __post_init__(self) -> None:
        if not self.deadline_s > 0:
            raise ConfigurationError(
                f"flow {self.flow!r}: deadline_s must be positive"
            )
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError(
                f"flow {self.flow!r}: target must be in (0, 1)"
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


def policy_from_recipe(
    recipe: "Recipe", target: float = DEFAULT_TARGET
) -> list[FlowSlo]:
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
                target=target,
            )
        )
    return flows


class _BurnWindow:
    """Good/bad event counts in fixed-width time buckets (bounded ring)."""

    __slots__ = ("bucket_s", "horizon", "_buckets")

    def __init__(self, bucket_s: float, horizon_s: float) -> None:
        self.bucket_s = bucket_s
        self.horizon = max(1, int(horizon_s / bucket_s) + 1)
        self._buckets: dict[int, list[int]] = {}

    def add(self, t: float, good: bool) -> None:
        index = int(t // self.bucket_s)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = [0, 0]
            floor = index - self.horizon
            for key in [k for k in self._buckets if k <= floor]:
                del self._buckets[key]
        bucket[1 if good else 0] += 1

    def window(self, now: float, window_s: float) -> tuple[int, int]:
        """``(bad, total)`` over the window ending at ``now``."""
        current = int(now // self.bucket_s)
        first = int((now - window_s) // self.bucket_s) + 1
        bad = total = 0
        for index, (b, g) in self._buckets.items():
            if first <= index <= current:
                bad += b
                total += b + g
        return bad, total


class SloEngine:
    """Streaming SLO evaluation attached to a runtime as ``runtime.slo``.

    Pure consumer of the span/prof streams: it never draws from the
    runtime RNG or id sequences, and only *adds* timer events, so the
    application's own trace records are unchanged by its presence (the
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
        alpha: float = 0.01,
        bucket_s: float = 1.0,
        short_window_s: float = 5.0,
        long_window_s: float = 25.0,
        page_burn: float = 10.0,
        warn_burn: float = 2.0,
        status_interval_s: float = 5.0,
        publisher: Callable[[str, dict[str, Any]], None] | None = None,
        cost_model: Any | None = None,
        drift_tolerance: float | None = None,
        drift_min_count: int | None = None,
        max_violation_log: int = 256,
    ) -> None:
        from repro.lint.dataflow import DRIFT_MIN_COUNT, DRIFT_TOLERANCE

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
        self.short_window_s = short_window_s
        self.long_window_s = long_window_s
        self.page_burn = page_burn
        self.warn_burn = warn_burn
        self.status_interval_s = status_interval_s
        self._publisher = publisher
        self._cost_model = (
            cost_model
            if cost_model is not None
            else getattr(runtime, "cost_model", None)
        )
        self.drift_tolerance = (
            DRIFT_TOLERANCE if drift_tolerance is None else drift_tolerance
        )
        self.drift_min_count = (
            DRIFT_MIN_COUNT if drift_min_count is None else drift_min_count
        )
        self.max_violation_log = max_violation_log

        # Per-flow streaming state.
        self.sketches = {f: LatencySketch(alpha=alpha) for f in self.flows}
        slice_s = max(bucket_s, short_window_s / 4.0)
        slices = max(2, int(long_window_s / slice_s) + 1)
        self.windows = {
            f: WindowedSketch(alpha=alpha, slice_s=slice_s, slices=slices)
            for f in self.flows
        }
        self._events = {
            f: _BurnWindow(bucket_s, long_window_s) for f in self.flows
        }
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

        # Trace bookkeeping, all bounded: root starts by trace id (purged
        # past the pending+window horizon), armed overdue timers, and
        # traces already counted overdue (late completions must not
        # double-count).
        self._roots: dict[str, float] = {}
        self._pending: dict[tuple[str, str], Any] = {}
        self._expired: dict[tuple[str, str], float] = {}
        max_deadline = max(
            (f.deadline_s for f in self.flows.values()), default=0.0
        )
        self._horizon_s = max_deadline + long_window_s + 2.0 * status_interval_s

        # Finished spans come straight from the ObsState (no trace record
        # is built for us); without one, from whatever feeds the tracer.
        obs = getattr(runtime, "obs", None)
        if obs is not None:
            obs.add_span_consumer(self._on_span)
        else:
            runtime.tracer.tap(SPAN_EVENT, self._on_record)
        if status_interval_s > 0:
            runtime.call_later(status_interval_s, self._tick)

        # Optional: surface engine state through the shared metrics
        # registry so the telemetry exporters and `repro top` see it.
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
    # Span stream
    # ------------------------------------------------------------------

    def _on_record(self, record: "TraceRecord") -> None:
        """``obs.span`` tap: a span stream with no ObsState behind it."""
        fields = record.fields
        self._on_span(
            record.time,
            fields["trace"],
            fields["parent"],
            fields.get("task") or fields["name"],
            fields["start"],
        )

    def _on_span(
        self, end: float, trace: str, parent: str, stage: str, start: float
    ) -> None:
        if not parent:
            self._roots[trace] = start
            for flow_id in self._root_flows.get(stage, ()):
                self._arm(self.flows[flow_id], trace, start)
        flow = self.flows.get(stage)
        if flow is not None:
            root_start = self._roots.get(trace)
            if root_start is None:
                return  # trace predates the engine; nothing to anchor on
            self._resolve(flow, trace, end - root_start, end)

    def _arm(self, flow: FlowSlo, trace: str, start: float) -> None:
        key = (flow.flow, trace)
        deadline_at = start + flow.deadline_s
        delay = deadline_at - self.runtime.now
        self._pending[key] = self.runtime.call_later(
            max(delay, 0.0), self._overdue, flow, trace, deadline_at
        )

    def _resolve(
        self, flow: FlowSlo, trace: str, latency: float, now: float
    ) -> None:
        key = (flow.flow, trace)
        handle = self._pending.pop(key, None)
        if handle is not None:
            handle.cancel()
        if key in self._expired:
            # Already counted overdue when the timer fired; record the
            # eventual latency for the distribution but not the budget.
            self.sketches[flow.flow].add(latency)
            self.windows[flow.flow].observe(now, latency)
            return
        good = latency <= flow.deadline_s + 1e-9
        self.sketches[flow.flow].add(latency)
        self.windows[flow.flow].observe(now, latency)
        self._events[flow.flow].add(now, good)
        if good:
            self.good[flow.flow] += 1
            if self._registry is not None:
                self._registry.counter("slo.flow.good", flow=flow.flow).inc()
        else:
            self._violation(flow, trace, now, kind="late", latency=latency)
        self._evaluate(flow, now)

    def _overdue(self, flow: FlowSlo, trace: str, deadline_at: float) -> None:
        key = (flow.flow, trace)
        if self._pending.pop(key, None) is None:
            return  # resolved in the meantime
        self._expired[key] = deadline_at
        self.overdue[flow.flow] += 1
        self._events[flow.flow].add(deadline_at, False)
        self._violation(flow, trace, deadline_at, kind="overdue", latency=None)
        self._evaluate(flow, deadline_at)

    def _violation(
        self,
        flow: FlowSlo,
        trace: str,
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
            "trace": trace,
            "kind": kind,
            "deadline_s": flow.deadline_s,
        }
        if latency is not None:
            entry["latency_s"] = round(latency, 9)
        if len(self.violation_log) < self.max_violation_log:
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
        flow = self.flows[flow_id]
        events = self._events[flow_id]
        budget = 1.0 - flow.target
        bad_s, total_s = events.window(now, self.short_window_s)
        bad_l, total_l = events.window(now, self.long_window_s)
        short = bad_s / total_s / budget if total_s else 0.0
        long = bad_l / total_l / budget if total_l else 0.0
        return short, long

    def _evaluate(self, flow: FlowSlo, now: float) -> None:
        short, long = self.burn(flow.flow, now)
        if short >= self.page_burn and long >= self.page_burn:
            state = "page"
        elif long >= self.warn_burn:
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
        model = self._cost_model
        if profiler is None or model is None or not getattr(model, "ops", None):
            return
        from repro.lint.rates import DEFAULT_RECORD_BYTES

        for op, (busy_s, count) in profiler.cpu_busy_by_op().items():
            if op in self.drift:
                continue
            if count < self.drift_min_count:
                continue
            predicted = model.mean_cost(op, DEFAULT_RECORD_BYTES, count)
            if predicted is None:
                continue  # RCP231 covers unmodeled ops statically
            observed = busy_s / count
            if predicted <= 0.0:
                continue
            drift = observed / predicted - 1.0
            if abs(drift) > self.drift_tolerance:
                finding = {
                    "t": round(now, 9),
                    "op": op,
                    "observed_s": round(observed, 9),
                    "predicted_s": round(predicted, 9),
                    "drift": round(drift, 6),
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
                util = profiler.cpu_busy_between(name, since, now) / (now - since)
                if util > mark["cpu_util"]:
                    mark["cpu_util"] = round(util, 9)
            depth = float(cpu.queue_length)
            if depth > mark["queue_depth"]:
                mark["queue_depth"] = depth

    def _purge(self, now: float) -> None:
        horizon = now - self._horizon_s
        for trace, start in [
            (t, s) for t, s in self._roots.items() if s < horizon
        ]:
            del self._roots[trace]
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
            window = self.windows[flow_id].query(now)
            flows[flow_id] = {
                "state": self.state[flow_id],
                "burn_short": round(short, 6),
                "burn_long": round(long, 6),
                "good": self.good[flow_id],
                "violations": self.violations[flow_id],
                "overdue": self.overdue[flow_id],
                "p95_ms": round(window.quantile(95) * 1000.0, 3),
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
            sketch = self.sketches[flow_id]
            entry: dict[str, Any] = {
                "deadline_ms": round(flow.deadline_s * 1000.0, 3),
                "target": flow.target,
                "pending_tracked": flow.pending,
                "roots": list(flow.roots),
                "count": sketch.count,
                "good": self.good[flow_id],
                "violations": self.violations[flow_id],
                "overdue": self.overdue[flow_id],
                "state": self.state[flow_id],
                "paged": self.paged[flow_id],
                "warned": self.warned[flow_id],
            }
            if sketch.count:
                entry.update(
                    {
                        "p50_ms": round(sketch.quantile(50) * 1000.0, 3),
                        "p95_ms": round(sketch.quantile(95) * 1000.0, 3),
                        "p99_ms": round(sketch.quantile(99) * 1000.0, 3),
                        "max_ms": round(sketch.maximum * 1000.0, 3),
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
                    hint="recalibrate or regenerate baselines",
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
    **kwargs: Any,
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
    publisher = kwargs.pop("publisher", None)
    if publisher is None and cluster is not None:
        client = cluster.management.module.client

        def publisher(topic: str, payload: dict[str, Any]) -> None:
            client.publish(topic, payload, retain=True)

    engine = SloEngine(runtime, flows, publisher=publisher, **kwargs)
    runtime.slo = engine
    return engine


def format_flow_summary(
    flows: dict[str, dict[str, Any]],
    deadlines_ms: dict[str, float] | None = None,
) -> str:
    """One-screen per-flow latency table with SLO verdicts.

    ``flows`` is the BENCH schema v3 shape (`flow_latency_summary`):
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
