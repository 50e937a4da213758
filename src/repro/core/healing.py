"""Self-healing control plane: failure detection and degradation policy.

Three pieces the management node composes into autonomous recovery:

* :class:`FailureDetector` — a deterministic, seeded phi-accrual-style
  liveness detector over the registry heartbeats the directory already
  receives. Suspicion is the ratio of observed silence to the EWMA of
  the peer's inter-announcement interval, evaluated every half
  heartbeat period; crossing :data:`SUSPECT_PHI` (2) marks the peer
  suspect, crossing :data:`CONFIRM_PHI` (3) confirms the failure and
  fires the management callback. Announcements are incarnation-stamped,
  so a heartbeat left in flight by a dead boot can never resurrect it.
* :func:`plan_degradation` — when surviving capacity cannot host every
  application (measured in the calibrated CPU-utilization currency of
  :mod:`repro.lint.rates`), decide which applications to shed, lowest
  :attr:`~repro.core.recipe.Recipe.priority` first.
* :func:`recovery_report` — distill a finished trace into the questions
  an operator asks after a fault: how fast was it detected, how long did
  each migration take, how many records were in flight across the
  handoff, and what got shed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.runtime.component import Component
from repro.runtime.node import Node
from repro.runtime.state import tracked_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.discovery import StreamDirectory
    from repro.core.recipe import Recipe
    from repro.core.splitter import SubTask
    from repro.sim.trace import Tracer

__all__ = [
    "PeerRecord",
    "FailureDetector",
    "AppLoad",
    "DegradationPlan",
    "plan_degradation",
    "recipe_utilization",
    "RecoveryReport",
    "recovery_report",
]


# ----------------------------------------------------------------------
# Failure detector
# ----------------------------------------------------------------------

ALIVE = "alive"
SUSPECT = "suspect"
CONFIRMED = "confirmed"

#: phi at which a peer turns suspect (traced and counted, not acted on).
SUSPECT_PHI = 2.0
#: phi at which a peer is declared failed and ``on_confirm`` fires.
CONFIRM_PHI = 3.0


@dataclass
class PeerRecord:
    """Liveness accrual state for one monitored module."""

    name: str
    incarnation: int
    last_at: float
    #: EWMA of observed inter-heartbeat intervals; ``None`` until the
    #: second heartbeat arrives (the prior is the announced cadence).
    interval_ewma: float | None = None
    state: str = ALIVE
    heartbeats: int = 1


class FailureDetector(Component):
    """Phi-accrual-style failure detection over registry heartbeats.

    phi for a peer is ``silence / interval``: how many expected heartbeat
    periods have elapsed without one. Two thresholds split the verdict:
    :data:`SUSPECT_PHI` (report, do not act) and :data:`CONFIRM_PHI`
    (declare the peer failed and fire ``on_confirm``). The evaluation
    timer ticks every half expected interval with a seeded phase offset,
    mirroring the MQTT client watchdog: a detector synchronized to the
    heartbeat period would make "did the heartbeat beat the verdict" an
    accident of same-instant event ordering.

    Incarnation handling:

    * a heartbeat stamped *below* the recorded incarnation is from a dead
      boot (in flight across a restart, or a replayed retained message)
      — traced as ``detector.stale_heartbeat`` and ignored, so confirmed
      peers stay confirmed;
    * an *equal* incarnation heartbeat from a suspect/confirmed peer
      refutes the verdict (the boot is provably still alive — a blip,
      not a crash);
    * a *higher* incarnation resets the record: the predecessor's death
      is history, the successor starts with a clean accrual.
    """

    def __init__(
        self,
        node: Node,
        directory: "StreamDirectory",
        expected_interval_s: float,
        on_confirm: Callable[[str], None] | None = None,
        exclude: Iterable[str] = (),
        connected: Callable[[], bool] | None = None,
    ) -> None:
        super().__init__(node, f"detector@{node.name}")
        self.directory = directory
        self.expected_interval_s = float(expected_interval_s)
        self.on_confirm = on_confirm
        self.exclude = set(exclude)
        #: Observer liveness probe: heartbeats arrive over the observer's
        #: own broker session, so while that session is down, silence is
        #: evidence about *us*, not about the peers.
        self.connected = connected
        self.peers: dict[str, PeerRecord] = {}
        self.suspects_raised = 0
        self.confirms_raised = 0
        self.refutes = 0
        self.stale_heartbeats = 0
        # The peers map is written by heartbeat arrivals and read/written
        # by the evaluation timer — exactly the cross-event state the
        # schedule sanitizer must see.
        self._peers_cell = tracked_state(
            node.runtime, f"detector.{node.name}", "peers"
        )
        interval = self.expected_interval_s / 2.0
        # Seeded phase offset (same idiom as the MQTT client watchdog):
        # keeps the evaluation tick off the exact instants heartbeat
        # timers of the same period fire.
        phase_rng = node.runtime.rng.stream(f"detector.{node.name}")
        phase = phase_rng.uniform(0.05, 0.95) * interval
        self.every(interval, self._evaluate, start_delay=phase)
        directory.watch_heartbeats(self._on_heartbeat)
        directory.watch_members(self._on_member)

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def _on_heartbeat(self, name: str, incarnation: int, now: float) -> None:
        if self.stopped or name in self.exclude:
            return
        peer = self.peers.get(name)
        if peer is None:
            self._peers_cell.note_write()
            self.peers[name] = PeerRecord(
                name=name, incarnation=incarnation, last_at=now
            )
            return
        if incarnation < peer.incarnation:
            self.stale_heartbeats += 1
            self.trace(
                "detector.stale_heartbeat",
                module=name,
                incarnation=incarnation,
                current=peer.incarnation,
            )
            self._count("detector.stale_heartbeats")
            return
        self._peers_cell.note_write()
        if incarnation > peer.incarnation:
            # Fresh boot: the accrual history belongs to the dead
            # predecessor; start over.
            self.peers[name] = PeerRecord(
                name=name, incarnation=incarnation, last_at=now
            )
            self.trace(
                "detector.reincarnated",
                module=name,
                incarnation=incarnation,
                previous=peer.incarnation,
            )
            return
        interval = now - peer.last_at
        if interval > 0.0:
            peer.interval_ewma = (
                interval
                if peer.interval_ewma is None
                else 0.3 * interval + 0.7 * peer.interval_ewma
            )
        peer.last_at = now
        peer.heartbeats += 1
        if peer.state != ALIVE:
            self.refutes += 1
            self.trace(
                "detector.refute",
                module=name,
                was=peer.state,
                incarnation=incarnation,
            )
            self._count("detector.refutes")
            peer.state = ALIVE

    def _on_member(self, name: str, alive: bool) -> None:
        if self.stopped or name in self.exclude:
            return
        if not alive and name in self.peers:
            # The membership layer (tombstone or TTL expiry) already
            # declared the departure; drop the accrual record so the
            # detector does not re-confirm a death everyone knows about.
            self._peers_cell.note_write()
            self.peers.pop(name, None)
            self.trace("detector.forget", module=name)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def phi(self, peer: PeerRecord, now: float) -> float:
        """Silence measured in expected heartbeat intervals.

        The basis is clamped from below to the announced cadence: modules
        also announce on every deploy, capability change and reconnect,
        so observed intervals can be milliseconds apart — letting those
        shrink the basis would turn one quiet heartbeat period into
        hundreds of apparent missed intervals (a false confirm that
        resurrects a second live instance, exactly what the
        exactly-once-per-incarnation invariant forbids). A cadence
        *slower* than expected still raises the basis.
        """
        basis = self.expected_interval_s
        if peer.interval_ewma is not None:
            basis = max(basis, peer.interval_ewma)
        return (now - peer.last_at) / max(basis, 1e-6)

    def _evaluate(self) -> None:
        now = self.runtime.now
        self._peers_cell.note_read()
        if self.connected is not None and not self.connected():
            # Hold accrual while cut off from the broker (e.g. across a
            # broker restart: every peer goes silent at once because *our*
            # session is gone). Advancing last_at restarts each peer's
            # accrual from the reconnect instant, granting the same grace
            # a fresh heartbeat would.
            self._peers_cell.note_write()
            for peer in self.peers.values():
                peer.last_at = max(peer.last_at, now)
            return
        for name in sorted(self.peers):
            peer = self.peers[name]
            if peer.state == CONFIRMED:
                continue
            phi = self.phi(peer, now)
            if phi >= CONFIRM_PHI:
                self._peers_cell.note_write()
                if peer.state == ALIVE:
                    # Jumped both thresholds in one tick: keep the state
                    # machine's trace sequence complete.
                    self._mark_suspect(peer, phi)
                peer.state = CONFIRMED
                self.confirms_raised += 1
                elapsed = now - peer.last_at
                self.trace(
                    "detector.confirm",
                    module=name,
                    incarnation=peer.incarnation,
                    phi=round(phi, 3),
                    silence_s=round(elapsed, 6),
                )
                self._count("detector.confirms")
                obs = self.runtime.obs
                if obs is not None and obs.metrics is not None:
                    obs.metrics.histogram(
                        "detector.detection_s", node=self.node.name
                    ).observe(elapsed)
                if self.on_confirm is not None:
                    self.on_confirm(name)
            elif phi >= SUSPECT_PHI and peer.state == ALIVE:
                self._peers_cell.note_write()
                self._mark_suspect(peer, phi)

    def _mark_suspect(self, peer: PeerRecord, phi: float) -> None:
        peer.state = SUSPECT
        self.suspects_raised += 1
        self.trace(
            "detector.suspect",
            module=peer.name,
            incarnation=peer.incarnation,
            phi=round(phi, 3),
        )
        self._count("detector.suspects")

    def _count(self, name: str) -> None:
        obs = self.runtime.obs
        if obs is not None and obs.metrics is not None:
            obs.metrics.counter(name, node=self.node.name).inc()

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Per-peer view for dashboards and tests (no sanitizer access)."""
        now = self.runtime.now
        return {
            name: {
                "state": peer.state,
                "incarnation": peer.incarnation,
                "phi": round(self.phi(peer, now), 3),
                "heartbeats": peer.heartbeats,
            }
            for name, peer in sorted(self.peers.items())
        }


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AppLoad:
    """One application's demand on the surviving capacity."""

    application: str
    priority: int
    #: CPU-seconds per second (calibrated cost model currency) the app
    #: needs from the surviving modules — already-placed subtasks plus
    #: the orphans awaiting re-placement.
    utilization: float


@dataclass(frozen=True)
class DegradationPlan:
    """Outcome of the shed-by-priority feasibility pass."""

    demand: float
    capacity: float
    shed: tuple[AppLoad, ...]
    #: Demand left after shedding; ``<= capacity`` iff :attr:`feasible`.
    residual: float

    @property
    def feasible(self) -> bool:
        return self.residual <= self.capacity + 1e-9


def plan_degradation(loads: list[AppLoad], capacity: float) -> DegradationPlan:
    """Shed applications (lowest priority first) until demand fits.

    Ties break by application name for determinism. The last surviving
    application is never shed: running one application degraded beats
    running nothing, and the caller traces the residual overcommit.
    """
    demand = sum(load.utilization for load in loads)
    residual = demand
    shed: list[AppLoad] = []
    candidates = sorted(loads, key=lambda load: (load.priority, load.application))
    while residual > capacity and len(candidates) > 1:
        victim = candidates.pop(0)
        shed.append(victim)
        residual -= victim.utilization
    return DegradationPlan(
        demand=demand, capacity=capacity, shed=tuple(shed), residual=residual
    )


def recipe_utilization(recipe: "Recipe", subtasks: Iterable["SubTask"]) -> float:
    """Calibrated CPU demand (util/sec) of ``subtasks`` of ``recipe``.

    The operator-only view (:func:`~repro.lint.rates.operator_load`) under
    the Pi-class calibrated model whatever the runtime runs under — the
    per-task feasibility pass's currency, not yet the full per-module
    demand placement ranks by (the shed decision is pinned at this value).
    """
    from repro.lint.rates import default_cost_model, operator_load, walk

    facts = walk(recipe)
    cost_model = default_cost_model()
    total = 0.0
    for subtask in subtasks:
        if subtask.task_id in facts:
            total += operator_load(facts[subtask.task_id], cost_model)
    return total


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


#: Fault kinds a detector/failover signal is expected to follow.
_DETECTABLE_KINDS = {"node_crash", "node_restart", "partition", "broker_restart"}
#: Events that count as "the control plane noticed", per fault kind. A
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


def recovery_report(tracer: "Tracer") -> RecoveryReport:
    """Build a :class:`RecoveryReport` from a finished scenario trace."""
    report = RecoveryReport()
    signals = sorted(
        (
            record
            for event in sorted(
                {e for events in _DETECTION_SIGNALS.values() for e in events}
            )
            for record in tracer.select(event=event)
        ),
        key=lambda record: (record.time, record.event),
    )
    for record in tracer.select(event="chaos.fault"):
        kind = str(record.fields.get("kind", "?"))
        target = str(
            record.fields.get("node")
            or record.fields.get("module")
            or record.fields.get("stations")
            or ""
        )
        report.faults.append({"time": record.time, "kind": kind, "target": target})
        if kind not in _DETECTABLE_KINDS:
            continue
        expected = _DETECTION_SIGNALS[kind]
        after = [
            s for s in signals if s.time >= record.time and s.event in expected
        ]
        if after:
            first = after[0]
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
