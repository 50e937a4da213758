"""The live-migration coordinator as a state machine.

``ManagementNode._transitions`` is the whole handoff protocol on the
coordinator's side: (phase, leg) -> what happens. The table must be total
— a new phase or leg forces a decision — and every row is driven here on
the four-module chaos cluster, by the real protocol up to the phase and
then by the leg under test. Legs are at-least-once: the last test
delivers each of them twice.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.chaos import Invariants, build_chaos_cluster
from repro.core.management import Migration, Phase
from tests.chaos.test_recovery_edges import (
    APP,
    batch_probe,
    hosts_of,
    lost_and_duplicated,
    redeliver_once,
    windowed_recipe,
)

LEGS = ("state", "missing", "ready", "timeout", "stopped")
TERMINAL = (Phase.SWITCHED, Phase.ABORTED)
WINDOW = f"{APP}/window"
HAPPY = [
    "migrate.start",
    "migrate.paused",
    "migrate.state_sent",
    "migrate.transfer",
    "migrate.adopted",
    "migrate.switched",
    "migrate.released",
    "migrate.done",
]


class Handoff:
    """A busy count window on the chaos cluster, and one migration of it."""

    def __init__(self) -> None:
        self.runtime, self.cluster = build_chaos_cluster(seed=3)
        self.batches = batch_probe(self.runtime, self.cluster)
        app = self.cluster.submit(windowed_recipe(count=4, rate_hz=20.0))
        self.cluster.settle(3.0)
        self.mgmt = self.cluster.management
        self.source = app.assignment.module_for("window")
        self.target = next(n for n in ("module-c", "module-d") if n != self.source)
        self.states: list[dict] = []
        self.mgmt.module.client.subscribe(
            "ifot/ctl/migrate/+/state", lambda t, p, pkt: self.states.append(p)
        )

    def start(self, **timing) -> Migration:
        assert self.mgmt.migrate_subtask(APP, "window", self.target, **timing)
        return self.mgmt._migrations[APP, "window"]

    def run_until(self, event: str) -> None:
        """Step the simulation until ``event`` has been traced."""
        for _ in range(2000):
            if self.runtime.tracer.count(event):
                return
            self.cluster.settle(0.001)
        raise AssertionError(f"{event} never happened")

    def leg(self, migration: Migration, leg: str, payload=None) -> None:
        self.mgmt._on_migration(f"ifot/ctl/migrate/{migration.id}/{leg}", payload)

    def events(self) -> list[str]:
        """``migrate.*``/``mgmt.*`` events and failed deploys, in trace order,
        an abort with its reason and the phase it found."""
        return [
            ":".join([r.event] + [r[k] for k in ("reason", "phase") if k in r.fields])
            for r in self.runtime.tracer
            if r.event.startswith(("migrate.", "mgmt.", "agent.deploy_failed"))
        ]

    def settle_and_check(self, hosts: list[str]) -> None:
        self.cluster.settle(10.0)
        assert self.mgmt._migrations == {}
        assert hosts_of(self.cluster, WINDOW) == hosts
        assert lost_and_duplicated(self.runtime, self.batches)[1] == 0
        report = Invariants(self.runtime.tracer, self.cluster).check()
        assert report.ok, [c.detail for c in report.failed()]


def test_the_table_is_total_over_live_phases_and_legs():
    mgmt = build_chaos_cluster(seed=3)[1].management
    live = [phase for phase in Phase if phase not in TERMINAL]
    assert set(mgmt._transitions) == set(product(live, LEGS))


def test_state_then_ready_walks_pause_transfer_switched():
    h = Handoff()
    migration = h.start()
    assert migration.phase is Phase.PAUSE
    h.run_until("migrate.transfer")  # (PAUSE, state)
    assert migration.phase is Phase.TRANSFER
    h.run_until("migrate.switched")  # (TRANSFER, ready)
    assert migration.phase is Phase.SWITCHED
    h.settle_and_check(hosts=[h.target])
    assert h.events() == HAPPY
    assert lost_and_duplicated(h.runtime, h.batches) == ([], 0)


def test_pause_missing_aborts_and_redeploys():
    h = Handoff()
    migration = h.start()
    h.cluster.module(h.source).undeploy(APP, "window")  # before the pause lands
    h.settle_and_check(hosts=[h.target])
    assert migration.phase is Phase.ABORTED
    assert h.events() == [
        "migrate.start",
        "migrate.aborted:source_missing:pause",
        "migrate.redeployed",
    ]


def test_pause_timeout_aborts_and_redeploys():
    h = Handoff()
    h.start(drain_s=1.0, timeout_s=0.5)
    h.settle_and_check(hosts=[h.target])
    assert h.events() == [
        "migrate.start",
        "migrate.paused",
        "migrate.aborted:timeout:pause",
        "migrate.redeployed",
    ]


def test_transfer_timeout_aborts_and_leaves_one_instance():
    h = Handoff()
    migration = h.start()
    h.run_until("migrate.transfer")
    h.leg(migration, "timeout")
    h.settle_and_check(hosts=[h.target])
    # The target adopts the handoff that was already on its way, so the plain
    # redeploy after it finds the sub-task hosted; its late `ready` is dropped.
    assert h.events() == [
        "migrate.start",
        "migrate.paused",
        "migrate.state_sent",
        "migrate.transfer",
        "migrate.aborted:timeout:transfer",
        "migrate.redeployed",
        "migrate.adopted",
        "agent.deploy_failed",
    ]


@pytest.mark.parametrize(
    ("reached", "expected"),
    [
        ("migrate.paused", ["migrate.start", "migrate.paused", "migrate.aborted:stopped:pause"]),
        # The handoff deploy is ahead of the undeploy broadcast on the wire:
        # the target adopts, then tears down like every other module.
        ("migrate.transfer", HAPPY[:4] + ["migrate.aborted:stopped:transfer", "migrate.adopted"]),
    ],
)
def test_stopped_aborts_without_redeploy(reached, expected):
    h = Handoff()
    migration = h.start()
    h.run_until(reached)
    h.mgmt.stop_application(APP)
    assert migration.phase is Phase.ABORTED
    h.settle_and_check(hosts=[])
    assert hosts_of(h.cluster, f"{APP}/sense") == []
    assert h.events() == expected


@pytest.mark.parametrize(
    ("reached", "leg"),
    [
        ("migrate.paused", "ready"),
        ("migrate.transfer", "state"),
        ("migrate.transfer", "missing"),
    ],
)
def test_leg_that_does_not_match_the_phase_is_dropped(reached, leg):
    h = Handoff()
    migration = h.start()
    h.run_until(reached)
    phase = migration.phase
    if leg == "ready":
        h.leg(migration, leg, {"module": h.target, "application": APP, "subtask_id": "window"})
    elif leg == "state":
        h.leg(migration, leg, h.states[0])  # the snapshot, a second time
    else:
        h.leg(migration, "state", {"application": APP, "subtask_id": "window", "missing": True})
    assert migration.phase is phase
    h.settle_and_check(hosts=[h.target])
    assert h.events() == HAPPY  # one transfer, one deploy, nothing rejected
    assert lost_and_duplicated(h.runtime, h.batches) == ([], 0)


def test_legs_of_a_finished_or_unknown_migration_are_dropped():
    h = Handoff()
    migration = h.start()
    h.settle_and_check(hosts=[h.target])
    for leg in LEGS:
        h.leg(migration, leg, h.states[0] if leg == "state" else None)
        h.mgmt._on_migration(f"ifot/ctl/migrate/migration-99/{leg}", None)
    h.settle_and_check(hosts=[h.target])
    assert migration.phase is Phase.SWITCHED
    assert h.events() == HAPPY


REDELIVERED = {
    "pause": ("ifot/ctl/module/+/pause", lambda payload: True),
    "state": ("ifot/ctl/migrate/+/state", lambda payload: True),
    "deploy+handoff": ("ifot/ctl/module/+/deploy", lambda payload: "handoff" in payload),
    "ready": ("ifot/ctl/migrate/+/ready", lambda payload: True),
    "release": ("ifot/ctl/module/+/release", lambda payload: True),
    "tail": ("ifot/ctl/migrate/+/tail", lambda payload: True),
}


@pytest.mark.parametrize("delay_ms", [10, 30, 50, 80])
@pytest.mark.parametrize("leg", sorted(REDELIVERED))
def test_every_leg_may_arrive_twice(leg, delay_ms):
    h = Handoff()
    topic_filter, match = REDELIVERED[leg]
    redelivered = redeliver_once(
        h.runtime, h.cluster, topic_filter, delay_ms / 1000.0, match
    )
    h.cluster.settle(0.5)
    h.start()
    h.settle_and_check(hosts=[h.target])
    assert redelivered, "precondition: the leg was delivered twice"
    assert lost_and_duplicated(h.runtime, h.batches) == ([], 0)
    assert h.runtime.tracer.count("agent.deploy_failed") == 0
    assert h.runtime.tracer.count("migrate.done") == 1
