"""Self-healing control plane: failure detection and degradation policy.

Two pieces the management node composes into autonomous recovery:

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

What they did after a fault is read back from the trace by
:mod:`repro.chaos`, which owns the fault vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.runtime.component import Component
from repro.runtime.node import Node
from repro.runtime.state import tracked_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.discovery import StreamDirectory
    from repro.core.recipe import Recipe
    from repro.core.splitter import SubTask

__all__ = [
    "PeerRecord",
    "FailureDetector",
    "AppLoad",
    "DegradationPlan",
    "plan_degradation",
    "recipe_utilization",
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
                    ).add(elapsed)
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
