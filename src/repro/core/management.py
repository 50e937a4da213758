"""Management: module agents and the management node (Figs. 6–8).

The paper's testbed has a ThinkPad running OpenRTM-based management
software that selects which class runs on which module and wires them
together. Here that role is split faithfully:

* a :class:`ModuleAgent` runs on **every** neuron module. It announces the
  module in the registry, serves deploy/undeploy/status commands, and —
  implementing Fig. 6 — can act as the *recipe leader*: any module that
  receives a submitted recipe splits it, assigns sub-tasks across the
  modules it currently knows from the directory, and sends the deploy
  commands itself. No cloud, no single fixed coordinator.
* a :class:`ManagementNode` is the operator's console: it submits recipes
  (to itself or to any module), collects status snapshots, and stops
  applications. It embeds an agent, so a "management node" is just a
  module with no sensors. With auto-failover it also runs the control
  plane's one reconciler: every failure verdict, membership edge and
  abort calls :meth:`ManagementNode.reconcile`, which issues the
  difference from :func:`repro.core.healing.desired`.

Control-plane topics::

    ifot/ctl/module/<module>/deploy     {application, subtask[, handoff]}
    ifot/ctl/module/<module>/undeploy   {application, subtask_id | "*"}
    ifot/ctl/module/<module>/submit     {recipe, strategy}
    ifot/ctl/module/<module>/pause      {application, subtask_id, migration, drain_s}
    ifot/ctl/module/<module>/release    {application, subtask_id, migration}
    ifot/ctl/migrate/<id>/state         snapshot + buffered records | {missing}
    ifot/ctl/migrate/<id>/ready         {module, application, subtask_id}
    ifot/ctl/migrate/<id>/tail          {application, subtask_id, buffered}
    ifot/ctl/status/request             {}
    ifot/ctl/status/report/<module>     status snapshot
    ifot/ctl/status/degraded            {applications, residual, capacity}
    ifot/ctl/app/<application>/deployed {assignment, leader}
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable

from repro.core.assignment import (
    Assignment,
    AssignmentStrategy,
    CapabilityAwareStrategy,
    LoadAwareStrategy,
    RoundRobinStrategy,
    TaskAssignment,
)
from repro.core.discovery import StreamDirectory, module_topic
from repro.core.flow import FlowRecord, topic_for_stream
from repro.core.healing import FailureDetector, LedApp, desired
from repro.core.node import NeuronModule
from repro.core.operators import StreamOperator
from repro.core.recipe import Recipe
from repro.core.splitter import RecipeSplit, SubTask
from repro.errors import AssignmentError, DeploymentError, RecipeError, StaticCheckError
from repro.util.validate import Diagnostic, Severity
from repro.mqtt.packets import Packet
from repro.runtime.component import Component
from repro.runtime.state import tracked_state

__all__ = ["ModuleAgent", "ManagementNode", "strategy_by_name"]

_STRATEGIES: dict[str, Callable[[], AssignmentStrategy]] = {
    "round_robin": RoundRobinStrategy,
    "load_aware": LoadAwareStrategy,
    "capability_aware": CapabilityAwareStrategy,
}


def strategy_by_name(name: str) -> AssignmentStrategy:
    factory = _STRATEGIES.get(name)
    if factory is None:
        raise DeploymentError(
            f"unknown assignment strategy {name!r} (known: {sorted(_STRATEGIES)})"
        )
    return factory()


# A control-plane topic with a sender and a subscriber is spelled once, here
# (the registry's own are in :mod:`repro.core.discovery`).
_STATUS_REQUEST = "ifot/ctl/status/request"
_STATUS_REPORT = "ifot/ctl/status/report/"


#: Pause->snapshot drain at a migration's source, and how long its
#: coordinator waits before aborting to a plain redeploy.
MIGRATION_DRAIN_S = 0.25
MIGRATION_TIMEOUT_S = 6.0


def _ctl_topic(module: str, command: str) -> str:
    return f"ifot/ctl/module/{module}/{command}"


def _migrate_topic(migration: str, leg: str) -> str:
    return f"ifot/ctl/migrate/{migration}/{leg}"


def _parse_migrate_topic(topic: str) -> tuple[str, str]:
    migration, leg = topic.split("/")[3:]
    return migration, leg


def _encode_buffer(records: Iterable[tuple[str, FlowRecord]]) -> list[list[Any]]:
    """Wire form of a handoff buffer (snapshot and tail alike)."""
    return [[stream, record.to_payload()] for stream, record in records]


def _decode_buffer(payload: dict[str, Any]) -> list[tuple[str, FlowRecord]]:
    return [
        (str(stream), FlowRecord.from_payload(entry))
        for stream, entry in payload.get("buffered", [])
    ]


def _raise_on_errors(diagnostics: Iterable[Diagnostic], message: str) -> None:
    errors = [d for d in diagnostics if d.severity >= Severity.ERROR]
    if errors:
        raise StaticCheckError(message, errors)


class Phase(Enum):
    """Where a :class:`Migration` stands; the last two are terminal."""

    PAUSE = "pause"  # pause sent, waiting for the source's snapshot
    TRANSFER = "transfer"  # handoff deploy sent, waiting for the target
    SWITCHED = "switched"
    ABORTED = "aborted"


@dataclass(slots=True)
class Migration:
    """One live handoff of one sub-task, as its coordinator sees it."""

    id: str
    application: str
    subtask: SubTask
    source: str
    target: str
    phase: Phase = Phase.PAUSE
    span: Any = None  # the obs span, when observability is on

    def fields(self) -> dict[str, str]:
        """What the span, ``migrate.start`` and ``migrate.switched`` all say."""
        return {
            "migration": self.id,
            "application": self.application,
            "subtask": self.subtask.subtask_id,
            "from_module": self.source,
            "to_module": self.target,
        }


class ModuleAgent(Component):
    """Control-plane presence of one module."""

    def __init__(
        self,
        module: NeuronModule,
        heartbeat_s: float = 10.0,
        assignable: bool = True,
    ) -> None:
        super().__init__(module.node, f"agent@{module.name}")
        self.module = module
        #: Whether this module accepts recipe sub-tasks. The management
        #: node's agent sets this False: it manages, it does not process
        #: flows (matching the paper's testbed, Fig. 7).
        self.assignable = assignable
        self.directory = StreamDirectory(module.node, module.client)
        self.deploys_handled = 0
        self.recipes_led = 0
        client = module.client
        # Crash-leave: if this agent's MQTT session expires (node died), the
        # broker tombstones the module's retained registry announcement, so
        # peers learn of the departure at keep-alive granularity instead of
        # waiting out the directory TTL.
        client.will = {
            "topic": module_topic(module.name),
            "payload": None,
            "retain": True,
        }
        client.refresh_session()  # the session predates the will
        client.subscribe_many(
            [
                (_ctl_topic(module.name, "deploy"), self._on_deploy),
                (_ctl_topic(module.name, "undeploy"), self._on_undeploy),
                (_ctl_topic(module.name, "submit"), self._on_submit),
                (_ctl_topic(module.name, "pause"), self._on_pause),
                (_ctl_topic(module.name, "release"), self._on_release),
                (_STATUS_REQUEST, self._on_status_request),
            ]
        )
        #: Migrations this module is the target of, awaiting the source's
        #: tail buffer: migration id -> (application, subtask_id, tail
        #: subscription handle).
        self._migration_tails: dict[str, tuple[str, str, Any]] = {}
        self._announce()
        module.capability_listeners.append(self._announce)
        # Re-announce the moment the session is re-established (broker
        # restart, node restart, partition heal) instead of waiting out a
        # heartbeat period: peers' directories converge immediately.
        client.reconnect_listeners.append(self._announce)
        self.every(heartbeat_s, self._announce)

    def _announce(self) -> None:
        self.directory.announce_module(
            self.module.name,
            self.module.capabilities,
            assignable=self.assignable,
            load=self.module.current_load(),
            incarnation=self.module.node.incarnation,
        )

    # ------------------------------------------------------------------
    # Deploy / undeploy
    # ------------------------------------------------------------------

    def _say(self, topic: str, **payload: Any) -> None:
        """Every control message that is not retained goes out here, QoS 1."""
        self.module.client.publish(topic, payload, qos=1)

    def _deploy(
        self, module: str, application: str, subtask: dict[str, Any], **handoff: Any
    ) -> None:
        """Tell ``module`` to host ``subtask`` (its :meth:`SubTask.to_dict`);
        a migration passes the snapshot as ``handoff={...}``."""
        topic = _ctl_topic(module, "deploy")
        self._say(topic, application=application, subtask=subtask, **handoff)

    def _undeploy(self, module: str, application: str, subtask_id: str = "*") -> None:
        topic = _ctl_topic(module, "undeploy")
        self._say(topic, application=application, subtask_id=subtask_id)

    def _leg(
        self, migration: str, leg: str, application: str, subtask_id: str, **fields: Any
    ) -> None:
        """This module's answer in a handoff, to whoever listens for ``leg``."""
        topic = _migrate_topic(migration, leg)
        self._say(topic, application=application, subtask_id=subtask_id, **fields)

    def _publish_assignment(self, application: str, assignment: Assignment) -> None:
        self.module.client.publish(
            f"ifot/ctl/app/{application}/deployed",
            {"assignment": assignment.to_dict(), "leader": self.module.name},
            retain=True,
        )

    def _operator(self, application: str, subtask_id: str) -> StreamOperator | None:
        """The hosted instance of a sub-task, if it can take part in a handoff."""
        operator = self.module.operators.get(f"{application}/{subtask_id}")
        return operator if isinstance(operator, StreamOperator) else None

    def _on_deploy(self, _topic: str, payload: Any, _packet: Packet) -> None:
        if self.stopped:
            return
        application = str(payload["application"])
        subtask = SubTask.from_dict(payload["subtask"])
        handoff = payload.get("handoff")
        adopting = isinstance(handoff, dict)
        if adopting and self._operator(application, subtask.subtask_id) is not None:
            # A redelivered handoff: the sub-task it carries already lives
            # here (the first delivery adopted it). Not a failed deploy.
            return
        try:
            self.module.deploy(application, subtask)
        except (DeploymentError, RecipeError) as exc:
            self.trace("agent.deploy_failed", subtask=subtask.subtask_id, error=str(exc))
            if not adopting:  # a plain redeploy: the handoff here was aborted
                self._end_handoffs(application, subtask.subtask_id)
            return
        self.deploys_handled += 1  # repro: san-ok[SAN020] commutative counter
        if adopting:
            self._adopt_handoff(application, subtask.subtask_id, handoff)
        for stream in subtask.outputs:
            self.directory.announce_stream(
                application,
                stream,
                topic_for_stream(application, stream),
                module=self.module.name,
                task=subtask.subtask_id,
            )

    def _on_undeploy(self, _topic: str, payload: Any, _packet: Packet) -> None:
        if self.stopped:
            return
        application = str(payload["application"])
        subtask_id = str(payload.get("subtask_id", "*"))
        self._end_handoffs(application, subtask_id)
        if subtask_id == "*":
            self.module.undeploy_application(application)
        else:
            self.module.undeploy(application, subtask_id)

    def _end_handoffs(self, application: str, subtask_id: str) -> None:
        """Give up waiting for the tails of ``subtask_id`` (``"*"``: every
        sub-task of ``application``) that this module adopted.

        The coordinator only addresses an adopted sub-task outside the
        handoff protocol — an undeploy, or a plain deploy that finds it
        hosted — once it has aborted the handoff, and then no tail comes.
        """
        for migration, (app, sid, tail_sub) in list(self._migration_tails.items()):
            if app != application or subtask_id not in ("*", sid):
                continue
            del self._migration_tails[migration]  # repro: san-ok[SAN020] protocol-ordered
            self.module.client.unsubscribe(tail_sub)
            operator = self._operator(app, sid)
            if operator is not None:
                operator.absorb_handoff([], final=True)

    # ------------------------------------------------------------------
    # Live migration (pause -> drain -> transfer -> resume)
    # ------------------------------------------------------------------

    def _on_pause(self, _topic: str, payload: Any, _packet: Packet) -> None:
        """Source side, step 1: stop processing, keep buffering.

        The operator's MQTT client has already PUBACKed everything the
        broker forwarded, so from here on every inbound record lands in
        the operator's handoff buffer instead of being processed. The
        drain delay lets records already queued on the CPU finish
        mutating operator state before the snapshot is taken.
        """
        if self.stopped:
            return
        application = str(payload["application"])
        subtask_id = str(payload["subtask_id"])
        migration = str(payload["migration"])
        drain_s = float(payload.get("drain_s", MIGRATION_DRAIN_S))
        operator = self._operator(application, subtask_id)
        if operator is None:
            self._send_migration_state(migration, application, subtask_id)
            return
        if operator.paused:
            # A redelivered pause: the snapshot timer is armed or has fired,
            # and a second snapshot would drain records into neither the
            # adopted state nor the tail.
            return
        operator.pause()
        self.trace(
            "migrate.paused",
            migration=migration,
            application=application,
            subtask=subtask_id,
        )
        self.after(drain_s, self._send_migration_state, migration, application, subtask_id)

    def _send_migration_state(
        self, migration: str, application: str, subtask_id: str
    ) -> None:
        """Source side, step 2: snapshot state + buffered records."""
        source = self.module.name
        operator = self._operator(application, subtask_id)
        if operator is None:
            # The operator vanished before the snapshot (a restart or undeploy
            # won the race): report that so the coordinator falls back to a
            # plain redeploy instead of waiting out its timeout.
            self._leg(
                migration, "state", application, subtask_id, from_module=source, missing=True
            )
            return
        buffered = _encode_buffer(operator.take_handoff_buffer())
        self._leg(
            migration,
            "state",
            application,
            subtask_id,
            subtask=operator.subtask.to_dict(),
            state=operator.export_state(),
            buffered=buffered,
            from_module=source,
        )
        self.trace(
            "migrate.state_sent",
            migration=migration,
            subtask=subtask_id,
            buffered=len(buffered),
        )

    def _adopt_handoff(
        self, application: str, subtask_id: str, handoff: dict[str, Any]
    ) -> None:
        """Target side: import state, replay the snapshot buffer, go live.

        ``begin_handoff_tracking`` runs before any live record can reach
        the new instance (deploy and adoption happen in one event), so
        every sample this instance processes live is recorded — the tail
        replay later dedups against that set. That is the exactly-once
        hinge: a record forwarded to both ends during the overlap window
        is processed here live and skipped in the tail.
        """
        migration = str(handoff["migration"])
        operator = self._operator(application, subtask_id)
        if operator is None:
            return
        state = handoff.get("state")
        if state:
            operator.import_state(state)
        operator.begin_handoff_tracking()
        buffered = _decode_buffer(handoff)
        operator.absorb_handoff(buffered)
        tail_sub = self.module.client.subscribe(
            _migrate_topic(migration, "tail"), self._on_migrate_tail
        )
        # The tails map is keyed by globally-unique migration id; adopt and
        # tail are causally ordered by the handoff protocol.
        self._migration_tails[migration] = (  # repro: san-ok[SAN020] protocol-ordered
            application,
            subtask_id,
            tail_sub,
        )
        self.trace(
            "migrate.adopted",
            migration=migration,
            application=application,
            subtask=subtask_id,
            replayed=len(buffered),
        )
        self._leg(migration, "ready", application, subtask_id, module=self.module.name)

    def _on_release(self, _topic: str, payload: Any, _packet: Packet) -> None:
        """Source side, step 3: hand over the tail, then disappear.

        Snapshotting the tail and unsubscribing (via undeploy) happen
        inside one event: any record the broker forwarded here before
        this instant is either in the tail or was processed pre-pause —
        nothing can slip between.
        """
        if self.stopped:
            return
        application = str(payload["application"])
        subtask_id = str(payload["subtask_id"])
        migration = str(payload["migration"])
        operator = self._operator(application, subtask_id)
        tail = [] if operator is None else _encode_buffer(operator.take_handoff_buffer())
        self.module.undeploy(application, subtask_id)
        self._leg(migration, "tail", application, subtask_id, buffered=tail)
        self.trace(
            "migrate.released",
            migration=migration,
            subtask=subtask_id,
            tail=len(tail),
        )

    def _on_migrate_tail(self, topic: str, payload: Any, _packet: Packet) -> None:
        """Target side, final step: replay the tail (deduped), finish."""
        if self.stopped:
            return
        migration, _leg = _parse_migrate_topic(topic)
        entry = self._migration_tails.pop(migration, None)  # repro: san-ok[SAN020] protocol-ordered
        if entry is None:
            return
        application, subtask_id, tail_sub = entry
        self.module.client.unsubscribe(tail_sub)
        operator = self._operator(application, subtask_id)
        if operator is None:
            return
        tail = _decode_buffer(payload)
        operator.absorb_handoff(tail, final=True)
        self.trace(
            "migrate.done",
            migration=migration,
            application=application,
            subtask=subtask_id,
            replayed=len(tail),
            skipped=operator.handoff_skipped,
        )

    # ------------------------------------------------------------------
    # Recipe leadership (Fig. 6 steps 2-3)
    # ------------------------------------------------------------------

    def _on_submit(self, _topic: str, payload: Any, _packet: Packet) -> None:
        if self.stopped:
            return
        try:
            recipe = self._checked_recipe(payload["recipe"])
            strategy = strategy_by_name(str(payload.get("strategy", "load_aware")))
            self.lead_deployment(recipe, strategy)
        except StaticCheckError as exc:
            # A remotely submitted broken recipe must not crash the
            # leader's event handler: reject, leave a trace, stay up.
            self.trace(
                "agent.recipe_rejected",
                rules=sorted({d.rule for d in exc.diagnostics}),
                findings=len(exc.diagnostics),
            )
        except AssignmentError as exc:  # no module can host a sub-task of it
            self.trace("agent.recipe_rejected", error=str(exc))

    def _checked_recipe(self, data: "Recipe | dict[str, Any]") -> Recipe:
        """The raw-dict gate of :meth:`ManagementNode.submit_recipe`."""
        if isinstance(data, Recipe):
            return data
        from repro.lint.recipe_check import check_recipe_dict

        message = f"recipe {data.get('recipe', '?')!r} rejected by static check"
        _raise_on_errors(check_recipe_dict(data), message)
        return Recipe.from_dict(data)

    def _note(self, diagnostics: list[Diagnostic]) -> None:
        """Trace each admission finding as ``agent.static_check``."""
        for diag in diagnostics:
            self.trace("agent.static_check", finding=diag.format())

    def lead_deployment(
        self, recipe: Recipe, strategy: AssignmentStrategy | None = None
    ) -> tuple[Assignment, dict[str, SubTask]]:
        """Split ``recipe``, assign over known-alive modules, send deploys.

        Every static finding is traced. An error in the recipe itself — its
        graph, or a param an operator rejects — raises
        :class:`StaticCheckError` before any deploy command is sent; rate
        findings (per task under ``default_cost_model()``, then per module
        under this node's own model) never reject: the paper *measures*
        saturation (§V-B). Returns the assignment and the split it
        deployed, by sub-task id.
        """
        from repro.lint import recipe_check as check
        from repro.lint.rates import placement_demand

        findings = check.check_recipe(recipe)
        self._note(findings)
        _raise_on_errors(findings, f"recipe {recipe.name!r} rejected by static check")
        self._note(check.check_rate_feasibility(recipe))
        subtasks = RecipeSplit().split(recipe)
        modules = self.directory.module_infos()
        model = self.node.cost_model
        demand = placement_demand(recipe, subtasks, model)
        assignment = TaskAssignment(strategy).assign(subtasks, modules, demand)
        self._note(check.check_module_loads(recipe, subtasks, assignment, modules, model))
        self.recipes_led += 1  # repro: san-ok[SAN020] commutative counter
        self.trace(
            "agent.recipe_led",
            recipe=recipe.name,
            subtasks=len(subtasks),
            modules=len(modules),
        )
        by_id = {s.subtask_id: s for s in subtasks}
        for subtask_id, module_name in sorted(assignment.placements.items()):
            self._deploy(module_name, recipe.name, by_id[subtask_id].to_dict())
        self._publish_assignment(recipe.name, assignment)
        return assignment, by_id

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------

    def _on_status_request(self, _topic: str, _payload: Any, _packet: Packet) -> None:
        if self.stopped:
            return
        self.module.client.publish(
            _STATUS_REPORT + self.module.name, self.module.status()
        )

    def on_stop(self) -> None:
        if self._announce in self.module.capability_listeners:
            self.module.capability_listeners.remove(self._announce)  # repro: san-ok[SAN020] idempotent teardown
        if self._announce in self.module.client.reconnect_listeners:
            self.module.client.reconnect_listeners.remove(self._announce)  # repro: san-ok[SAN020] idempotent teardown
        self.directory.withdraw_module(self.module.name)
        self.directory.stop()


class ManagementNode:
    """The operator's console (paper Fig. 7-8's ThinkPad).

    Wraps a :class:`NeuronModule` (typically one with no devices) plus its
    agent, and offers the operations the paper's management GUI exposes:
    submit an application, watch module status, tear an application down.
    With ``auto_failover`` it also keeps what it leads placed on live
    modules: every failure verdict, membership edge, settle timer, stop and
    migration abort calls :meth:`reconcile`, the one path that moves a
    sub-task after its submit (an operator's :meth:`migrate_subtask` aside).
    """

    def __init__(
        self,
        module: NeuronModule,
        heartbeat_s: float = 10.0,
        auto_failover: bool = False,
    ) -> None:
        self.module = module
        self.agent = ModuleAgent(module, heartbeat_s=heartbeat_s, assignable=False)
        self.heartbeat_s = heartbeat_s
        self.status_reports: dict[str, dict[str, Any]] = {}
        self.auto_failover = auto_failover
        self.failovers_performed = 0
        self.load_sheds_performed = 0
        #: Applications shed to fit surviving capacity (degraded mode).
        self.degraded_applications: list[str] = []
        #: Applications this node led, by name.
        self._led: dict[str, LedApp] = {}
        #: In-flight migrations by (app, sid): a sub-task moves at most once
        #: at a time. A migration leaves the table the moment it is decided.
        self._migrations: dict[tuple[str, str], Migration] = {}
        #: What a leg does to a migration in a phase — the whole handoff
        #: protocol, coordinator side. Any leg may arrive twice or late
        #: (QoS 1 is at-least-once); one that does not match the phase is
        #: dropped, here and nowhere else.
        self._transitions = {
            (Phase.PAUSE, "state"): self._transfer,
            (Phase.PAUSE, "missing"): self._abort,
            (Phase.PAUSE, "ready"): self._drop,
            (Phase.PAUSE, "timeout"): self._abort,
            (Phase.PAUSE, "stopped"): self._abort,
            (Phase.TRANSFER, "state"): self._drop,
            (Phase.TRANSFER, "missing"): self._drop,
            (Phase.TRANSFER, "ready"): self._switch,
            (Phase.TRANSFER, "timeout"): self._abort,
            (Phase.TRANSFER, "stopped"): self._abort,
        }
        #: Modules seen to die (None) or back since the given instant, and
        #: not yet trusted to take their sub-tasks home.
        self._settling: dict[str, float | None] = {}
        #: Each module's announced incarnation at its last join.
        self._incarnations: dict[str, int | None] = {}
        # All four are mutated from MQTT dispatch events and timers —
        # cross-event shared state the schedule sanitizer should see.
        owner = f"mgmt.{module.name}"
        self._migrations_cell = tracked_state(module.node.runtime, owner, "migrations")
        self._settling_cell = tracked_state(module.node.runtime, owner, "settling")
        self._led_cell = tracked_state(module.node.runtime, owner, "led")
        self._status_cell = tracked_state(module.node.runtime, owner, "status")
        self.detector: FailureDetector | None = None
        if auto_failover:
            # The membership layer usually beats phi accrual to a clean crash
            # (the broker's last-will tombstone fires at keep-alive expiry);
            # the detector covers the cases that leave no tombstone.
            self.detector = FailureDetector(
                module.node,
                self.agent.directory,
                expected_interval_s=heartbeat_s,
                on_confirm=self.reconcile,
                exclude={module.name},
                session=module.client,
            )
        module.client.subscribe_many(
            [
                (_STATUS_REPORT + "+", self._on_status),
                (_migrate_topic("+", "state"), self._on_migration),
                (_migrate_topic("+", "ready"), self._on_migration),
            ]
        )
        if auto_failover:
            self.directory.watch_members(self._on_member)

    def _trace(self, event: str, **fields: Any) -> None:
        self.module.node.runtime.trace("mgmt", event, **fields)

    # ------------------------------------------------------------------
    # Application lifecycle
    # ------------------------------------------------------------------

    def submit_recipe(
        self,
        recipe: "Recipe | dict[str, Any]",
        strategy: AssignmentStrategy | str | None = None,
        via_module: str | None = None,
    ) -> Assignment | None:
        """Deploy ``recipe``.

        With ``via_module`` the recipe is shipped to that module's agent,
        which leads the deployment (Fig. 6 Step 1: "Application builder
        makes the recipe, and sends the recipe to an IFoT module") — the
        returned assignment is then None because it happens remotely.
        Otherwise this node's own agent leads, and the assignment is
        returned directly.

        A raw recipe dict is accepted too, and is statically checked
        *before* :class:`Recipe` construction: a cyclic or dangling graph
        is rejected with a :class:`StaticCheckError` carrying diagnostics
        instead of a bare constructor exception.
        """
        recipe = self.agent._checked_recipe(recipe)
        if isinstance(strategy, str):
            strategy = strategy_by_name(strategy)
        if via_module is not None:
            name = (
                strategy.name if isinstance(strategy, AssignmentStrategy) else "load_aware"
            )
            topic = _ctl_topic(via_module, "submit")
            self.agent._say(topic, recipe=recipe.to_dict(), strategy=name)
            return None
        assignment, subtasks = self.agent.lead_deployment(recipe, strategy)
        self._led_cell.note_write()
        self._led[recipe.name] = LedApp(
            recipe, assignment, subtasks, dict(assignment.placements)
        )
        return assignment

    def stop_application(self, application: str) -> None:
        """Broadcast undeploy of ``application`` to every known module.

        A handoff of one of its sub-tasks still in flight is aborted first
        (reason ``stopped``, nothing redeployed), so no late leg of it can
        bring the sub-task back.
        """
        self._stop(application)
        self.reconcile()

    def _stop(self, application: str) -> None:
        self._led_cell.note_write()
        self._led.pop(application, None)
        for migration in list(self._migrations.values()):
            if migration.application == application:
                self._on_migration(_migrate_topic(migration.id, "stopped"))
        for record in self.agent.directory.modules():
            self.agent._undeploy(record.name, application)

    # ------------------------------------------------------------------
    # The reconciler (extension: the paper's dynamic join/leave future work)
    # ------------------------------------------------------------------

    def reconcile(self, lost: str | None = None) -> list[tuple[str, str, str, str]]:
        """Issue what takes the led applications to :func:`desired`.

        ``lost`` is a module just seen to die (the detector's verdict, a
        leave edge): gone for this pass even if the directory still lists
        it, and no sub-task's home again until it has been back for a
        heartbeat period. A shed application is stopped. A sub-task whose
        host is gone is undeployed there and deployed on its target (model
        state is lost: online models re-learn from the live stream); one
        on a live host migrates; one with a handoff in flight is left to
        it. A stranded one is traced once (``mgmt.failover_pinned`` if it
        is pinned, else ``mgmt.failover_stranded``). Returns each action
        issued as ``(verb, application, sub-task, module)``.
        """
        if not self.auto_failover:
            return []
        self._settling_cell.note_write()
        if lost is not None:
            self._settling[lost] = None
        live = [m for m in self.directory.module_infos() if m.name != lost]
        self._led_cell.note_read()
        placement, plan = desired(self._led, live, self._settling, self.module.node.cost_model)
        actions = []
        for victim in plan.shed:
            self.load_sheds_performed += 1
            self.degraded_applications.append(victim.application)
            self._trace(
                "mgmt.load_shed",
                application=victim.application,
                priority=victim.priority,
                utilization=round(victim.utilization, 4),
            )
            self._stop(victim.application)
            actions.append(("shed", victim.application, "*", ""))
        if plan.shed or (lost is not None and not plan.feasible):
            residual, capacity = round(plan.residual, 4), round(plan.capacity, 4)
            if not plan.feasible:
                self._trace("mgmt.degraded", residual=residual, capacity=capacity)
            applications = sorted(set(self.degraded_applications))
            status = {"applications": applications, "residual": residual, "capacity": capacity}
            self.module.client.publish("ifot/ctl/status/degraded", status, retain=True)
        hosts = {m.name for m in live}
        for name, app in self._led.items():
            placements, moved = app.assignment.placements, False
            for sid, host in placements.items():
                target = placement[name][sid]
                if (name, sid) in self._migrations:
                    continue
                if target == host:
                    if host not in hosts and sid not in app.stranded:
                        app.stranded.add(sid)
                        event = "pinned" if app.subtasks[sid].pin_to else "stranded"
                        self._trace(
                            f"mgmt.failover_{event}", application=name, subtask=sid, module=host
                        )
                    continue
                app.stranded.discard(sid)
                if host in hosts:
                    self.migrate_subtask(name, sid, target)
                    actions.append(("migrate", name, sid, target))
                    continue
                placements[sid], moved = target, True
                # On a true crash this undeploy dies with the session; after
                # a false accusation it leaves the replacement the only copy.
                self.agent._undeploy(host, name, sid)
                self.agent._deploy(target, name, app.subtasks[sid].to_dict())
                self._trace(
                    "mgmt.failover_moved",
                    application=name,
                    subtask=sid,
                    from_module=host,
                    to_module=target,
                )
                actions.append(("deploy", name, sid, target))
            if moved:
                self.failovers_performed += 1
                self.agent._publish_assignment(name, app.assignment)
        return actions

    def _on_member(self, name: str, alive: bool) -> None:
        """A membership edge. A (re)joined module whose announced incarnation
        changed rebooted and lost its RAM: it is re-sent every sub-task
        placed on it. One that kept it (a healed partition) still runs them.
        Either loses any stale copy of a sub-task whose home it is. That
        one moves back a heartbeat period later, once the module's
        announcements have settled in every directory."""
        if not alive:
            self.reconcile(name)
            return
        incarnation = next(
            (m.incarnation for m in self.directory.modules() if m.name == name), None
        )
        self._led_cell.note_write()
        rebooted = incarnation is None or self._incarnations.get(name) != incarnation
        self._incarnations[name] = incarnation
        for app_name, app in self._led.items():
            for sid in app.assignment.subtasks_on(name):
                app.stranded.discard(sid)
                if rebooted:
                    self.agent._deploy(name, app_name, app.subtasks[sid].to_dict())
                    self._trace("mgmt.reinstated", application=app_name, subtask=sid, module=name)
        homecoming = sorted(
            (app_name, sid)
            for app_name, app in self._led.items()
            for sid, home in app.home.items()
            if home == name != app.assignment.placements[sid]
        )
        for app_name, sid in homecoming:
            self.agent._undeploy(name, app_name, sid)
        self._settling_cell.note_write()
        self._settling.pop(name, None)
        if homecoming:
            self._settling[name] = now = self.module.node.runtime.now
            self.agent.after(self.heartbeat_s, self._settled, name, now)
        self.reconcile()

    def _settled(self, name: str, joined_at: float) -> None:
        self._settling_cell.note_write()
        if self._settling.get(name) == joined_at:  # not gone again meanwhile
            del self._settling[name]
            self.reconcile()

    # ------------------------------------------------------------------
    # Live migration coordinator (QoS1-safe operator handoff)
    # ------------------------------------------------------------------

    def migrate_subtask(
        self,
        application: str,
        subtask_id: str,
        to_module: str,
        drain_s: float = MIGRATION_DRAIN_S,
        timeout_s: float = MIGRATION_TIMEOUT_S,
    ) -> str | None:
        """Move one sub-task to ``to_module`` without losing QoS1 records.

        Protocol (each leg a QoS1 control message)::

            mgmt -> source : pause      operator buffers instead of processing
            source -> mgmt : state      after drain: snapshot + buffered records
            mgmt -> target : deploy     with handoff {state, buffered}
            target -> mgmt : ready      imported, replayed, live + tracking
            mgmt -> source : release    undeploy; publish tail buffer
            source -> target: tail      replay (deduped against live set)

        Exactly-once: the overlap window (both ends subscribed) is covered
        by the target's live-sample tracking — anything the broker
        forwarded to both sides is processed live at the target and
        skipped during tail replay. Returns the migration id, or ``None``
        if the sub-task already lives on ``to_module``. A timeout aborts
        the handoff and falls back to a plain redeploy (state lost, like
        crash failover — but never two live instances). A sub-task that is
        already moving raises :class:`DeploymentError`.
        """
        led = self._led.get(application)
        if led is None:
            raise DeploymentError(f"application {application!r} is not led here")
        if (application, subtask_id) in self._migrations:
            raise DeploymentError(
                f"sub-task {subtask_id!r} of {application!r} is already migrating"
            )
        source = led.assignment.module_for(subtask_id)
        if source == to_module:
            return None
        subtask = led.subtasks[subtask_id]  # placed, so it is in the split
        if subtask.pin_to is not None and subtask.pin_to != to_module:
            raise DeploymentError(
                f"sub-task {subtask_id!r} is pinned to {subtask.pin_to!r}"
            )
        led.home[subtask_id] = to_module
        runtime = self.module.node.runtime
        migration = Migration(
            runtime.ids.next("migration"), application, subtask, source, to_module
        )
        if runtime.obs is not None:
            migration.span = runtime.obs.start_span(
                "migrate", self.module.node, **migration.fields()
            )
        self._migrations_cell.note_write()
        self._migrations[application, subtask_id] = migration
        self._trace("migrate.start", **migration.fields())
        self.agent._say(
            _ctl_topic(source, "pause"),
            application=application,
            subtask_id=subtask_id,
            migration=migration.id,
            drain_s=float(drain_s),
        )
        self.agent.after(
            timeout_s, self._on_migration, _migrate_topic(migration.id, "timeout")
        )
        return migration.id

    def _on_migration(
        self, topic: str, payload: Any = None, _packet: Packet | None = None
    ) -> None:
        """Every leg of every handoff enters here: ``state`` and ``ready``
        from the two subscriptions, ``timeout`` from the timer
        :meth:`migrate_subtask` armed, ``stopped`` from
        :meth:`stop_application` — the last two addressed like the first.
        A leg for a finished or unknown migration is dropped."""
        migration_id, leg = _parse_migrate_topic(topic)
        if leg == "state":
            self._migrations_cell.note_read()
            if not isinstance(payload, dict) or payload.get("missing"):
                leg = "missing"
        else:  # every other leg can only take a migration off the table
            self._migrations_cell.note_write()
        for migration in self._migrations.values():
            if migration.id == migration_id:
                self._transitions[migration.phase, leg](migration, leg, payload)
                return

    def _drop(self, migration: Migration, leg: str, payload: Any) -> None:
        """A leg its phase has no use for (a redelivery, a late answer)."""

    def _transfer(self, migration: Migration, _leg: str, payload: Any) -> None:
        """The source's snapshot arrived: ship it to the target."""
        migration.phase = Phase.TRANSFER
        buffered = payload.get("buffered", [])
        self._trace(
            "migrate.transfer",
            migration=migration.id,
            subtask=migration.subtask.subtask_id,
            buffered=len(buffered),
        )
        self.agent._deploy(
            migration.target,
            migration.application,
            payload.get("subtask") or migration.subtask.to_dict(),
            handoff={
                "migration": migration.id,
                "state": payload.get("state"),
                "buffered": buffered,
                "from_module": payload.get("from_module"),
            },
        )

    def _switch(self, migration: Migration, _leg: str, _payload: Any) -> None:
        """The target is live: flip the placement, release the source."""
        application, subtask_id = migration.application, migration.subtask.subtask_id
        # A live migration's application is led: stopping it aborts them.
        assignment = self._led[application].assignment
        assignment.placements[subtask_id] = migration.target
        self.agent._publish_assignment(application, assignment)
        self.agent._say(
            _ctl_topic(migration.source, "release"),
            application=application,
            subtask_id=subtask_id,
            migration=migration.id,
        )
        self._trace("migrate.switched", **migration.fields())
        self._retire(migration, Phase.SWITCHED, "switched")

    def _retire(self, migration: Migration, phase: Phase, outcome: str) -> None:
        """A migration is decided: terminal phase, off the table, span closed."""
        del self._migrations[migration.application, migration.subtask.subtask_id]
        migration.phase = phase
        obs = self.module.node.runtime.obs
        if migration.span is not None and obs is not None:
            obs.finish(migration.span, outcome=outcome)

    def _abort(self, migration: Migration, leg: str, _payload: Any) -> None:
        """Fall back from a wedged handoff to a plain redeploy on the target.

        Operator state is lost, exactly like crash failover — the one
        guarantee kept at all costs is that the paused source instance
        never resumes, so no sample is ever processed by two live
        instances of the same sub-task. A target that is gone too leaves
        an orphan for :meth:`reconcile`.
        """
        application, subtask = migration.application, migration.subtask
        subtask_id = subtask.subtask_id
        reason = leg
        if leg == "missing":  # the one aborting leg that entered as a read
            self._migrations_cell.note_write()
            reason = "source_missing"
        self._trace(
            "migrate.aborted",
            migration=migration.id,
            reason=reason,
            phase=migration.phase.value,
            application=application,
            subtask=subtask_id,
        )
        self._retire(migration, Phase.ABORTED, f"aborted:{reason}")
        led = self._led.get(application)
        if led is None:
            return  # stopped: there is nothing left to keep alive
        target = migration.target
        self.agent._undeploy(migration.source, application, subtask_id)
        led.assignment.placements[subtask_id] = target
        if any(info.name == target for info in self.directory.module_infos()):
            self.agent._deploy(target, application, subtask.to_dict())
            self.agent._publish_assignment(application, led.assignment)
            self._trace(
                "migrate.redeployed",
                migration=migration.id,
                application=application,
                subtask=subtask_id,
                to_module=target,
            )
        self.reconcile()

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    def request_status(self) -> None:
        """Ask every module to report; answers land in ``status_reports``."""
        self.module.client.publish(_STATUS_REQUEST, {})

    def _on_status(self, topic: str, payload: Any, _packet: Packet) -> None:
        module = topic.rsplit("/", 1)[-1]
        if isinstance(payload, dict):
            self._status_cell.note_write()
            self.status_reports[module] = payload

    @property
    def directory(self) -> StreamDirectory:
        return self.agent.directory

    def render_dashboard(self) -> str:
        """Textual stand-in for the paper's management GUI (Fig. 8).

        Renders the live view this node has: known modules with their
        capabilities and load, collected status reports, announced streams
        and led applications. Call :meth:`request_status` (plus a settle)
        first if fresh per-module operator lists are wanted.
        """
        lines = ["IFoT management console", "=" * 64]
        lines.append("modules:")
        for record in self.directory.modules():
            role = "" if record.assignable else "  [management]"
            caps = ", ".join(sorted(record.capabilities)) or "-"
            lines.append(
                f"  {record.name:<16} load={record.load:6.2f} "
                f"capacity={record.capacity:4.1f}  caps: {caps}{role}"
            )
            self._status_cell.note_read()
            report = self.status_reports.get(record.name)
            if report and report.get("operators"):
                for operator in report["operators"]:
                    lines.append(f"      - {operator}")
        streams = self.directory.find_streams()
        if streams:
            lines.append("streams:")
            for stream in streams:
                lines.append(
                    f"  {stream.application}:{stream.stream:<20} "
                    f"({stream.producer_task} @ {stream.producer_module})"
                )
        if self._led:
            lines.append("applications led here:")
            for name, app in sorted(self._led.items()):
                placements = ", ".join(
                    f"{sid}->{mod}" for sid, mod in sorted(app.assignment.placements.items())
                )
                lines.append(f"  {name}: {placements}")
        return "\n".join(lines)

    def shutdown(self) -> None:
        if self.detector is not None:
            self.detector.stop()
        self.agent.stop()
        self.module.shutdown()
