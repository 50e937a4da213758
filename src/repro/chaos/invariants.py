"""End-to-end delivery invariants, checked against the trace after a run.

The checker consumes the same trace the benchmarks use and asserts the
properties that make "failover happens to work" into "failure behaviour
is specified and checked":

1. **No silent QoS 1 loss** — every QoS 1 message the broker forwarded is
   either delivered to the subscriber, given up after max retransmissions
   (traced), dropped with an explained reason (session ended, broker
   restarted — traced), or still awaiting a PUBACK at the end of the run.
   Anything else is a silent loss and fails the check.
2. **Effectively-once into ML** — QoS 1 redelivery means at-least-once
   transport; the ``dedup`` operator must restore effectively-once before
   records reach learning/judging, so no ``(operator, sample_id)`` pair
   may appear twice in ``ml.trained`` / ``ml.judged``.
3. **Bounded recovery** — for each configured :class:`RecoveryCheck`, the
   first matching signal event after each fault (or after its
   ``chaos.restored`` mark) must arrive within the bound.
4. **Directory convergence** — after the run settles, every alive
   module's directory must agree on the set of alive modules (requires a
   cluster handle).

:func:`recovery_report` reads the same trace for the questions an
operator asks after a fault: how fast was it detected, how long did each
migration take, how many records were in flight across the handoff, and
what got shed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.sim.trace import TraceRecord, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.middleware import IFoTCluster

__all__ = [
    "RecoveryCheck",
    "CheckResult",
    "InvariantReport",
    "Invariants",
    "RecoveryReport",
    "recovery_report",
]


@dataclass(frozen=True)
class RecoveryCheck:
    """Bound on time-to-signal after a fault.

    For every ``chaos.fault`` trace with ``kind == fault_kind`` (or the
    matching ``chaos.restored`` mark when ``measure_from='restored'``),
    the first later trace of ``signal_event`` — optionally filtered to
    sources containing ``source_contains`` — must occur within
    ``bound_s`` seconds.
    """

    fault_kind: str
    signal_event: str
    bound_s: float
    measure_from: str = "fault"  # "fault" | "restored"
    source_contains: str | None = None


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class InvariantReport:
    """Outcome of an invariant pass: per-check verdicts plus metrics."""

    checks: list[CheckResult] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failed(self) -> list[CheckResult]:
        return [check for check in self.checks if not check.ok]

    def render(self) -> str:
        lines = ["invariants: " + ("PASS" if self.ok else "FAIL")]
        for check in self.checks:
            mark = "ok  " if check.ok else "FAIL"
            line = f"  [{mark}] {check.name}"
            if check.detail:
                line += f" — {check.detail}"
            lines.append(line)
        if self.metrics:
            lines.append("metrics:")
            for key in sorted(self.metrics):
                value = self.metrics[key]
                rendered = f"{value:.4f}".rstrip("0").rstrip(".")
                lines.append(f"  {key} = {rendered}")
        return "\n".join(lines)


def _preview(items: list[str], limit: int = 5) -> str:
    head = ", ".join(items[:limit])
    more = len(items) - limit
    return head + (f" (+{more} more)" if more > 0 else "")


def _first_at_or_after(
    mark: TraceRecord, signals: list[TraceRecord]
) -> TraceRecord | None:
    """The first of ``signals`` (in time order) at or after ``mark``."""
    return next((s for s in signals if s.time >= mark.time), None)


class Invariants:
    """Checks the four end-to-end properties against a finished trace."""

    def __init__(
        self,
        tracer: Tracer,
        cluster: "IFoTCluster | None" = None,
    ) -> None:
        self.tracer = tracer
        self.cluster = cluster

    def check(
        self, recovery: "tuple[RecoveryCheck, ...] | list[RecoveryCheck]" = ()
    ) -> InvariantReport:
        report = InvariantReport()
        self._check_qos1_accounting(report)
        self._check_ml_dedup(report)
        self._check_cross_instance(report)
        for spec in recovery:
            self._check_recovery(report, spec)
        if self.cluster is not None:
            self._check_directory_convergence(report)
        return report

    # ------------------------------------------------------------------
    # 1. QoS 1 accounting
    # ------------------------------------------------------------------

    def _check_qos1_accounting(self, report: InvariantReport) -> None:
        forwarded: set[str] = set()
        for record in self.tracer.select(event="mqtt.broker.forward"):
            fwd_id = record.fields.get("fwd_id")
            if fwd_id is not None:
                forwarded.add(str(fwd_id))
        delivery_counts: Counter[str] = Counter(
            str(record["fwd_id"])
            for record in self.tracer.select(event="mqtt.client.deliver")
        )
        delivered = set(delivery_counts)
        given_up = {
            str(record.fields.get("fwd_id"))
            for record in self.tracer.select(event="mqtt.broker.give_up")
            if record.fields.get("fwd_id") is not None
        }
        dropped_explained: set[str] = set()
        for record in self.tracer.select(event="mqtt.broker.inflight_dropped"):
            dropped_explained.update(str(f) for f in record.fields.get("fwd_ids", ()))
        pending: set[str] = set()
        if self.cluster is not None:
            pending = set(self.cluster.broker.inflight_fwd_ids())

        unaccounted = sorted(
            forwarded - delivered - given_up - dropped_explained - pending
        )
        dup_deliveries = sum(
            count - 1 for count in delivery_counts.values() if count > 1
        )
        report.metrics.update(
            qos1_forwarded=float(len(forwarded)),
            qos1_delivered=float(len(delivered & forwarded)),
            qos1_given_up=float(len(given_up & forwarded)),
            qos1_dropped_explained=float(len(dropped_explained & forwarded)),
            qos1_pending=float(len(pending & forwarded)),
            qos1_unaccounted=float(len(unaccounted)),
            qos1_duplicate_deliveries=float(dup_deliveries),
        )
        if forwarded:
            report.metrics["qos1_explained_loss_rate"] = len(
                (given_up | dropped_explained) & forwarded
            ) / len(forwarded)
        report.checks.append(
            CheckResult(
                name="qos1-no-silent-loss",
                ok=not unaccounted,
                detail=(
                    f"{len(forwarded)} forwarded, all accounted"
                    if not unaccounted
                    else f"unaccounted fwd_ids: {_preview(unaccounted)}"
                ),
            )
        )

    # ------------------------------------------------------------------
    # 2. Effectively-once into ML
    # ------------------------------------------------------------------

    def _check_ml_dedup(self, report: InvariantReport) -> None:
        duplicates: list[str] = []
        total = 0
        for event in ("ml.trained", "ml.judged"):
            seen: Counter[tuple[str, str]] = Counter()
            for record in self.tracer.select(event=event):
                total += 1
                seen[(record.source, str(record["sample_id"]))] += 1
            duplicates.extend(
                f"{event}:{source}:{sample_id}(x{count})"
                for (source, sample_id), count in sorted(seen.items())
                if count > 1
            )
        report.metrics["ml_records"] = float(total)
        report.metrics["ml_duplicates"] = float(len(duplicates))
        report.checks.append(
            CheckResult(
                name="ml-effectively-once",
                ok=not duplicates,
                detail=(
                    f"{total} ML records, no duplicates"
                    if not duplicates
                    else f"duplicate ML inputs: {_preview(duplicates)}"
                ),
            )
        )

    # ------------------------------------------------------------------
    # 2b. Exactly-once per incarnation (across instances)
    # ------------------------------------------------------------------

    def _check_cross_instance(self, report: InvariantReport) -> None:
        """No sample may be processed by two *instances* of one sub-task.

        Check 2 keys on the full trace source (which embeds the hosting
        module), so it forbids per-instance duplicates but would tolerate
        the same sample being trained once on the pre-failover instance
        and again on its successor. Stripping the ``@module`` suffix
        closes that hole: across crash failover, restart reinstatement
        and live migration, each sample reaches the learner exactly once
        per sub-task — the handoff protocol's whole guarantee.
        """
        duplicates: list[str] = []
        for event in ("ml.trained", "ml.judged"):
            hosts: dict[tuple[str, str], set[str]] = {}
            for record in self.tracer.select(event=event):
                instance = record.source.rsplit("@", 1)[0]
                key = (instance, str(record["sample_id"]))
                hosts.setdefault(key, set()).add(record.source)
            # Same-source repeats are check 2's finding; this one fires
            # only when *distinct* instances both processed the sample.
            duplicates.extend(
                f"{event}:{instance}:{sample_id}({'+'.join(sorted(sources))})"
                for (instance, sample_id), sources in sorted(hosts.items())
                if len(sources) > 1
            )
        report.metrics["ml_cross_instance_duplicates"] = float(len(duplicates))
        report.checks.append(
            CheckResult(
                name="exactly-once-per-incarnation",
                ok=not duplicates,
                detail=(
                    "no sample processed by two instances of a sub-task"
                    if not duplicates
                    else f"cross-instance duplicates: {_preview(duplicates)}"
                ),
            )
        )

    # ------------------------------------------------------------------
    # 3. Bounded recovery
    # ------------------------------------------------------------------

    def _check_recovery(self, report: InvariantReport, spec: RecoveryCheck) -> None:
        mark_event = (
            "chaos.restored" if spec.measure_from == "restored" else "chaos.fault"
        )
        marks = [
            record
            for record in self.tracer.select(event=mark_event)
            if record.fields.get("kind") == spec.fault_kind
        ]
        signals = [
            record
            for record in self.tracer.select(event=spec.signal_event)
            if spec.source_contains is None
            or spec.source_contains in record.source
        ]
        name = f"recovery:{spec.fault_kind}->{spec.signal_event}"
        if not marks:
            report.checks.append(
                CheckResult(name=name, ok=False, detail="fault never injected")
            )
            return
        worst = 0.0
        failures: list[str] = []
        for mark in marks:
            first = _first_at_or_after(mark, signals)
            if first is None:
                failures.append(f"t={mark.time:.2f}: no signal")
                continue
            delta = first.time - mark.time
            worst = max(worst, delta)
            if delta > spec.bound_s:
                failures.append(
                    f"t={mark.time:.2f}: {delta:.2f}s > bound {spec.bound_s:.2f}s"
                )
        report.metrics[f"recovery_s:{spec.fault_kind}"] = worst
        report.checks.append(
            CheckResult(
                name=name,
                ok=not failures,
                detail=(
                    f"worst {worst:.2f}s <= bound {spec.bound_s:.2f}s"
                    if not failures
                    else _preview(failures)
                ),
            )
        )

    # ------------------------------------------------------------------
    # 4. Directory convergence
    # ------------------------------------------------------------------

    def _check_directory_convergence(self, report: InvariantReport) -> None:
        cluster = self.cluster
        assert cluster is not None
        agents: dict[str, Any] = {}
        for name, module in cluster.modules.items():
            agent = getattr(module, "agent", None)
            if agent is not None and module.node.alive:
                agents[name] = agent
        mgmt_name = cluster.management.module.name
        expected = set(agents) | {mgmt_name}
        mismatches: list[str] = []
        views = dict(agents)
        views[mgmt_name] = cluster.management.agent
        for name, agent in sorted(views.items()):
            got = {record.name for record in agent.directory.modules()}
            if got != expected:
                missing = sorted(expected - got)
                extra = sorted(got - expected)
                mismatches.append(
                    f"{name}: missing={missing or '-'} extra={extra or '-'}"
                )
        report.metrics["directory_views"] = float(len(views))
        report.checks.append(
            CheckResult(
                name="directory-convergence",
                ok=not mismatches,
                detail=(
                    f"{len(views)} views agree on {len(expected)} members"
                    if not mismatches
                    else _preview(mismatches)
                ),
            )
        )


# ----------------------------------------------------------------------
# Recovery report
# ----------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What happened between fault injection and recovery, from the trace."""

    faults: list[dict[str, Any]] = field(default_factory=list)
    detections: list[dict[str, Any]] = field(default_factory=list)
    failovers: list[dict[str, Any]] = field(default_factory=list)
    migrations: list[dict[str, Any]] = field(default_factory=list)
    shed: list[dict[str, Any]] = field(default_factory=list)
    degraded: list[dict[str, Any]] = field(default_factory=list)

    def render(self) -> str:
        lines = ["recovery report", "=" * 64]
        lines.append(f"faults injected: {len(self.faults)}")
        for fault in self.faults:
            target = fault.get("target", "")
            lines.append(
                f"  t={fault['time']:8.3f}  {fault['kind']:<16} {target}"
            )
        lines.append("detection:")
        if not self.detections:
            lines.append("  (no detectable faults)")
        for det in self.detections:
            if det.get("latency_s") is None:
                lines.append(
                    f"  {det['kind']} at t={det['time']:.3f}: never detected"
                )
            else:
                lines.append(
                    f"  {det['kind']} at t={det['time']:.3f}: "
                    f"{det['signal']} after {det['latency_s']:.3f} s"
                )
        lines.append(f"failover moves: {len(self.failovers)}")
        for move in self.failovers:
            lines.append(
                f"  t={move['time']:8.3f}  {move['application']}/"
                f"{move['subtask']}: {move['from_module']} -> "
                f"{move['to_module']}"
            )
        lines.append(f"migrations: {len(self.migrations)}")
        for mig in self.migrations:
            duration = mig.get("duration_s")
            status = (
                f"{duration:.3f} s"
                if duration is not None
                else f"incomplete ({mig.get('outcome', 'pending')})"
            )
            lines.append(
                f"  {mig['migration']}  {mig.get('application', '?')}/"
                f"{mig.get('subtask', '?')}: "
                f"{mig.get('from_module', '?')} -> {mig.get('to_module', '?')}"
                f"  {status}, {mig.get('inflight', 0)} records across handoff"
                f" ({mig.get('snapshot', 0)} snapshot + {mig.get('tail', 0)}"
                f" tail, {mig.get('skipped', 0)} deduped)"
            )
        if self.shed or self.degraded:
            lines.append("degraded-mode decisions:")
            for entry in self.shed:
                lines.append(
                    f"  t={entry['time']:8.3f}  shed {entry['application']} "
                    f"(priority {entry['priority']})"
                )
            for entry in self.degraded:
                lines.append(
                    f"  t={entry['time']:8.3f}  residual overcommit "
                    f"{entry['residual']:.4f} util on {entry['capacity']:.2f} "
                    "capacity"
                )
        else:
            lines.append("degraded-mode decisions: none")
        return "\n".join(lines)


#: Events that count as "the control plane noticed", per detectable fault
#: kind (the others, link degradation and sensor flaps, have none). A
#: crash/partition is noticed when the detector confirms or the broker
#: tombstone triggers a failover; a restart is noticed when management
#: reinstates the rejoined incarnation (or the detector sees it first).
_DETECTION_SIGNALS: dict[str, tuple[str, ...]] = {
    "node_crash": ("detector.confirm", "mgmt.failover_moved"),
    "partition": ("detector.confirm", "mgmt.failover_moved"),
    "broker_restart": ("detector.confirm", "mgmt.failover_moved"),
    # A restart is noticed when management reinstates the rejoined
    # incarnation, or — if failover moved its work away — when the
    # fail-back migration starts.
    "node_restart": ("mgmt.reinstated", "migrate.start", "detector.reincarnated"),
}


def recovery_report(tracer: Tracer) -> RecoveryReport:
    """Build a :class:`RecoveryReport` from a finished scenario trace."""
    report = RecoveryReport()
    signals_for = {
        kind: sorted(
            (record for event in events for record in tracer.select(event=event)),
            key=lambda record: (record.time, record.event),
        )
        for kind, events in _DETECTION_SIGNALS.items()
    }
    for record in tracer.select(event="chaos.fault"):
        kind = str(record.fields.get("kind", "?"))
        target = str(
            record.fields.get("node")
            or record.fields.get("module")
            or record.fields.get("stations")
            or ""
        )
        report.faults.append({"time": record.time, "kind": kind, "target": target})
        if kind not in _DETECTION_SIGNALS:
            continue
        first = _first_at_or_after(record, signals_for[kind])
        if first is not None:
            report.detections.append(
                {
                    "time": record.time,
                    "kind": kind,
                    "signal": first.event,
                    "latency_s": first.time - record.time,
                }
            )
        else:
            report.detections.append(
                {"time": record.time, "kind": kind, "signal": None, "latency_s": None}
            )
    for record in tracer.select(event="mgmt.failover_moved"):
        report.failovers.append(
            {
                "time": record.time,
                "application": record.fields.get("application"),
                "subtask": record.fields.get("subtask"),
                "from_module": record.fields.get("from_module"),
                "to_module": record.fields.get("to_module"),
            }
        )
    migrations: dict[str, dict[str, Any]] = {}
    for record in tracer:
        mid = record.fields.get("migration")
        if mid is None or not record.event.startswith("migrate."):
            continue
        entry = migrations.setdefault(str(mid), {"migration": str(mid)})
        if record.event == "migrate.start":
            entry.update(
                start=record.time,
                application=record.fields.get("application"),
                subtask=record.fields.get("subtask"),
                from_module=record.fields.get("from_module"),
                to_module=record.fields.get("to_module"),
            )
        elif record.event == "migrate.state_sent":
            entry["snapshot"] = int(record.fields.get("buffered", 0))
        elif record.event == "migrate.released":
            entry["tail"] = int(record.fields.get("tail", 0))
        elif record.event == "migrate.done":
            entry["done"] = record.time
            entry["skipped"] = int(record.fields.get("skipped", 0))
            entry["outcome"] = "done"
        elif record.event == "migrate.aborted":
            entry["outcome"] = f"aborted:{record.fields.get('reason', '?')}"
    for mid in sorted(migrations):
        entry = migrations[mid]
        start = entry.get("start")
        done = entry.get("done")
        if start is not None and done is not None:
            entry["duration_s"] = done - start
        entry["inflight"] = entry.get("snapshot", 0) + entry.get("tail", 0)
        report.migrations.append(entry)
    for record in tracer.select(event="mgmt.load_shed"):
        report.shed.append(
            {
                "time": record.time,
                "application": record.fields.get("application"),
                "priority": record.fields.get("priority", 0),
            }
        )
    for record in tracer.select(event="mgmt.degraded"):
        report.degraded.append(
            {
                "time": record.time,
                "residual": float(record.fields.get("residual", 0.0)),
                "capacity": float(record.fields.get("capacity", 0.0)),
            }
        )
    return report
