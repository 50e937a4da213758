"""FailureDetector and degradation policy tests."""

from __future__ import annotations

import pytest

from repro.core.healing import (
    ALIVE,
    CONFIRMED,
    SUSPECT,
    AppLoad,
    FailureDetector,
    plan_degradation,
    recipe_utilization,
)
from repro.core.splitter import RecipeSplit
from repro.registry import SCENARIOS
from repro.runtime.sim import SimRuntime

EXPECTED_S = 2.0


class FakeDirectory:
    """Just the watch hooks the detector consumes."""

    def __init__(self) -> None:
        self.heartbeat_watchers = []
        self.member_watchers = []

    def watch_heartbeats(self, callback) -> None:
        self.heartbeat_watchers.append(callback)

    def watch_members(self, callback) -> None:
        self.member_watchers.append(callback)

    def heartbeat(self, name: str, incarnation: int, now: float) -> None:
        for callback in self.heartbeat_watchers:
            callback(name, incarnation, now)

    def leave(self, name: str) -> None:
        for callback in self.member_watchers:
            callback(name, False)


class FakeSession:
    """The observer's own broker session, as the detector reads it."""

    def __init__(self, reconnect_window_s: float = 0.0) -> None:
        self.up = True
        self.reconnect_window_s = reconnect_window_s

    def hearing_broker(self) -> bool:
        return self.up


@pytest.fixture
def rig():
    runtime = SimRuntime(seed=11)
    directory = FakeDirectory()
    confirmed: list[str] = []
    detector = FailureDetector(
        runtime.add_node("mgmt"),
        directory,
        expected_interval_s=EXPECTED_S,
        on_confirm=confirmed.append,
    )
    return runtime, directory, detector, confirmed


def beat(runtime, directory, name, incarnation, at):
    runtime.run(until=at)
    directory.heartbeat(name, incarnation, runtime.now)


class TestFailureDetector:
    def test_silence_walks_alive_suspect_confirmed(self, rig):
        runtime, directory, detector, confirmed = rig
        beat(runtime, directory, "pi-1", 0, 1.0)
        beat(runtime, directory, "pi-1", 0, 3.0)
        runtime.run(until=3.5)
        assert detector.peers["pi-1"].state == ALIVE
        # phi = silence / expected: suspect at 2 intervals of silence...
        runtime.run(until=3.0 + 2.0 * EXPECTED_S + 1.0)
        assert detector.peers["pi-1"].state == SUSPECT
        assert detector.suspects_raised == 1 and not confirmed
        # ...confirmed at 3.
        runtime.run(until=3.0 + 3.0 * EXPECTED_S + 1.0)
        assert detector.peers["pi-1"].state == CONFIRMED
        assert confirmed == ["pi-1"]
        assert detector.confirms_raised == 1

    def test_same_incarnation_heartbeat_refutes_suspicion(self, rig):
        runtime, directory, detector, confirmed = rig
        beat(runtime, directory, "pi-1", 3, 1.0)
        runtime.run(until=1.0 + 2.5 * EXPECTED_S)
        assert detector.peers["pi-1"].state == SUSPECT
        beat(runtime, directory, "pi-1", 3, runtime.now + 0.1)
        assert detector.peers["pi-1"].state == ALIVE
        assert detector.refutes == 1
        assert not confirmed

    def test_stale_incarnation_never_resurrects_confirmed_peer(self, rig):
        runtime, directory, detector, confirmed = rig
        beat(runtime, directory, "pi-1", 2, 1.0)
        runtime.run(until=1.0 + 4.0 * EXPECTED_S)
        assert detector.peers["pi-1"].state == CONFIRMED
        # A heartbeat left in flight by the dead boot (incarnation 1 < 2)
        # must not refute the verdict.
        directory.heartbeat("pi-1", 1, runtime.now)
        assert detector.peers["pi-1"].state == CONFIRMED
        assert detector.stale_heartbeats == 1
        assert confirmed == ["pi-1"]

    def test_higher_incarnation_resets_the_record(self, rig):
        runtime, directory, detector, confirmed = rig
        beat(runtime, directory, "pi-1", 1, 1.0)
        runtime.run(until=1.0 + 4.0 * EXPECTED_S)
        assert detector.peers["pi-1"].state == CONFIRMED
        beat(runtime, directory, "pi-1", 2, runtime.now + 0.1)
        peer = detector.peers["pi-1"]
        assert peer.state == ALIVE
        assert peer.incarnation == 2
        assert peer.interval_ewma is None  # predecessor history discarded

    def test_phi_basis_clamped_against_bursty_announcements(self, rig):
        runtime, directory, detector, _ = rig
        # Deploy/capability churn: announcements milliseconds apart drive
        # the EWMA toward zero. One quiet heartbeat period must not read
        # as hundreds of missed intervals.
        beat(runtime, directory, "pi-1", 0, 1.0)
        for i in range(5):
            beat(runtime, directory, "pi-1", 0, 1.001 + i * 0.001)
        peer = detector.peers["pi-1"]
        assert peer.interval_ewma is not None and peer.interval_ewma < 0.01
        assert detector.phi(peer, runtime.now + EXPECTED_S) < 2.0
        runtime.run(until=runtime.now + 1.5 * EXPECTED_S)
        assert peer.state == ALIVE and detector.suspects_raised == 0

    def test_slower_cadence_raises_the_basis(self, rig):
        runtime, directory, detector, _ = rig
        # A peer announcing every 8 s (4x slower than expected) earns a
        # proportionally longer grace period.
        beat(runtime, directory, "pi-1", 0, 1.0)
        beat(runtime, directory, "pi-1", 0, 9.0)
        peer = detector.peers["pi-1"]
        assert peer.interval_ewma == pytest.approx(8.0)
        runtime.run(until=9.0 + 2.5 * EXPECTED_S)
        assert peer.state == ALIVE  # 5 s silence, but basis is 8 s
        assert detector.phi(peer, runtime.now) < 1.0

    def test_membership_departure_forgets_the_peer(self, rig):
        runtime, directory, detector, confirmed = rig
        beat(runtime, directory, "pi-1", 0, 1.0)
        directory.leave("pi-1")
        assert "pi-1" not in detector.peers
        runtime.run(until=30.0)
        assert not confirmed  # no re-confirm of a known departure

    def test_excluded_peer_is_never_tracked(self, rig):
        runtime, directory, detector, _ = rig
        detector.exclude.add("mgmt")
        beat(runtime, directory, "mgmt", 0, 1.0)
        assert "mgmt" not in detector.peers

    def test_disconnected_observer_holds_accrual(self):
        runtime = SimRuntime(seed=11)
        directory = FakeDirectory()
        session = FakeSession()
        confirmed: list[str] = []
        detector = FailureDetector(
            runtime.add_node("mgmt"),
            directory,
            expected_interval_s=EXPECTED_S,
            on_confirm=confirmed.append,
            session=session,
        )
        beat(runtime, directory, "pi-1", 0, 1.0)
        # Our own broker session drops: every peer goes silent at once,
        # which is evidence about us, not them.
        session.up = False
        runtime.run(until=20.0)
        assert detector.peers["pi-1"].state == ALIVE and not confirmed
        # Accrual restarts from the reconnect instant: no instant verdict,
        # but genuine post-reconnect silence still confirms.
        session.up = True
        runtime.run(until=runtime.now + 1.5 * EXPECTED_S)
        assert detector.peers["pi-1"].state == ALIVE
        runtime.run(until=runtime.now + 3.0 * EXPECTED_S)
        assert confirmed == ["pi-1"]

    @pytest.mark.parametrize("window_s", [0.0, 4.0 * EXPECTED_S])
    def test_peers_reconnect_window_after_the_outage_is_not_evidence(self, window_s):
        """Peers still in their reconnect backoff after our own outage stay
        alive for the window; without one, the same silence confirms."""
        runtime = SimRuntime(seed=11)
        directory = FakeDirectory()
        session = FakeSession(window_s)
        confirmed: list[str] = []
        FailureDetector(
            runtime.add_node("mgmt"),
            directory,
            expected_interval_s=EXPECTED_S,
            on_confirm=confirmed.append,
            session=session,
        )
        beat(runtime, directory, "pi-1", 0, 1.0)
        session.up = False
        runtime.run(until=10.0)
        session.up = True
        # pi-1 is back within the window, after 3.5 expected intervals.
        beat(runtime, directory, "pi-1", 0, runtime.now + 3.5 * EXPECTED_S)
        assert confirmed == ([] if window_s else ["pi-1"])

    def test_silence_after_a_hold_is_reported_whole(self):
        """A peer that never comes back is confirmed once the hold and its
        window have passed; the verdict reports the silence since it was
        last heard, and phi is never negative inside the window."""
        runtime = SimRuntime(seed=11)
        runtime.tracer.enabled = True
        directory = FakeDirectory()
        session = FakeSession(4.0 * EXPECTED_S)
        detector = FailureDetector(
            runtime.add_node("mgmt"), directory, expected_interval_s=EXPECTED_S, session=session
        )
        beat(runtime, directory, "pi-1", 0, 1.0)
        session.up = False
        runtime.run(until=10.0)
        session.up = True
        runtime.run(until=runtime.now + 3.0 * EXPECTED_S)
        assert detector.snapshot()["pi-1"]["phi"] == 0.0
        runtime.run(until=40.0)
        (confirm,) = runtime.tracer.select("detector.confirm")
        assert confirm["silence_s"] == pytest.approx(confirm.time - 1.0)
        assert confirm.time > 10.0 + session.reconnect_window_s

    def test_snapshot_renders_per_peer_state(self, rig):
        runtime, directory, detector, _ = rig
        beat(runtime, directory, "pi-1", 4, 1.0)
        snap = detector.snapshot()
        assert snap["pi-1"]["state"] == ALIVE
        assert snap["pi-1"]["incarnation"] == 4
        assert snap["pi-1"]["heartbeats"] == 1


class TestPlanDegradation:
    def loads(self):
        return [
            AppLoad("video", priority=0, utilization=0.5),
            AppLoad("audit", priority=1, utilization=0.3),
            AppLoad("alarm", priority=2, utilization=0.4),
        ]

    def test_everything_fits_nothing_shed(self):
        plan = plan_degradation(self.loads(), capacity=2.0)
        assert plan.shed == () and plan.feasible
        assert plan.residual == pytest.approx(1.2)

    def test_sheds_lowest_priority_first(self):
        plan = plan_degradation(self.loads(), capacity=0.75)
        assert [load.application for load in plan.shed] == ["video"]
        assert plan.feasible and plan.residual == pytest.approx(0.7)

    def test_priority_ties_break_by_name(self):
        loads = [
            AppLoad("bravo", priority=0, utilization=0.4),
            AppLoad("alpha", priority=0, utilization=0.4),
            AppLoad("keep", priority=5, utilization=0.4),
        ]
        plan = plan_degradation(loads, capacity=0.5)
        assert [load.application for load in plan.shed] == ["alpha", "bravo"]

    def test_last_application_is_never_shed(self):
        loads = [AppLoad("only", priority=0, utilization=5.0)]
        plan = plan_degradation(loads, capacity=1.0)
        assert plan.shed == ()
        assert not plan.feasible
        assert plan.residual == pytest.approx(5.0)

    def test_residual_overcommit_reported_when_infeasible(self):
        loads = [
            AppLoad("a", priority=0, utilization=2.0),
            AppLoad("b", priority=1, utilization=2.0),
        ]
        plan = plan_degradation(loads, capacity=1.0)
        assert [load.application for load in plan.shed] == ["a"]
        assert not plan.feasible and plan.residual == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "scenario, utilization",
        [("fig5", 1.2982528), ("paper", 0.316012), ("failover", 0.1286048)],
    )
    def test_shed_currency_is_pinned(self, scenario, utilization):
        """What shedding sums per application: every sub-task's operator
        load under the calibrated model, read off the recipe walk."""
        recipe = SCENARIOS[scenario].recipe()
        assert recipe_utilization(recipe, RecipeSplit().split(recipe)) == pytest.approx(
            utilization, rel=1e-12
        )



def test_client_hearing_broker_is_silence_bounded():
    """The probe the management node's detector holds on: connected, and
    heard from within the watchdog's two keep-alive periods."""
    from repro.mqtt.broker import Broker
    from repro.mqtt.client import MqttClient

    runtime = SimRuntime(seed=3)
    broker = Broker(runtime.add_node("hub"))
    client = MqttClient(runtime.add_node("c"), broker.address, client_id="c", keepalive_s=2.0)
    assert not client.hearing_broker()  # not connected yet
    client.connect()
    runtime.run(until=5.0)
    assert client.hearing_broker()  # pings answered
    broker.node.fail()
    runtime.run(until=runtime.now + 4.5)
    assert client.connected and not client.hearing_broker()  # the watchdog has not said so yet
    assert client.reconnect_window_s == pytest.approx(4.0 * 2.0 * 1.15)


@pytest.mark.slow
def test_broker_restart_confirms_no_live_module():
    """Across a broker restart every module goes silent at once, because
    every session is gone: the detector must confirm none of them, and the
    control plane then redeploys nothing (before, seed 9 confirmed all
    four modules and a redeploy failed ``already deployed``)."""
    from repro.chaos import run_scenario

    for seed in range(10):
        tracer = run_scenario("broker_restart", seed=seed).tracer
        assert not tracer.select("detector.confirm"), seed
        assert not tracer.select("agent.deploy_failed"), seed
