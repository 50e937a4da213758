"""Invariant checker and recovery report: pass and fail cases against
hand-built traces."""

import pytest

from repro.chaos.invariants import Invariants, RecoveryCheck, recovery_report
from repro.sim.trace import Tracer


def check(tracer, recovery=()):
    return Invariants(tracer).check(recovery=recovery)


def forward(tracer, t, fwd_id):
    tracer.emit(t, "broker", "mqtt.broker.forward", fwd_id=fwd_id, topic="t")


def deliver(tracer, t, fwd_id, dup=False):
    tracer.emit(t, "client", "mqtt.client.deliver", fwd_id=fwd_id, dup=dup)


class TestQos1Accounting:
    def test_all_delivered_passes(self):
        tracer = Tracer()
        forward(tracer, 1.0, "f-1")
        deliver(tracer, 1.1, "f-1")
        report = check(tracer)
        assert report.ok
        assert report.metrics["qos1_forwarded"] == 1
        assert report.metrics["qos1_delivered"] == 1

    def test_silent_loss_fails(self):
        tracer = Tracer()
        forward(tracer, 1.0, "f-1")
        report = check(tracer)
        assert not report.ok
        (failure,) = report.failed()
        assert failure.name == "qos1-no-silent-loss"
        assert "f-1" in failure.detail

    def test_give_up_is_accounted(self):
        tracer = Tracer()
        forward(tracer, 1.0, "f-1")
        tracer.emit(3.0, "broker", "mqtt.broker.give_up", fwd_id="f-1")
        report = check(tracer)
        assert report.ok
        assert report.metrics["qos1_given_up"] == 1

    def test_explained_drop_is_accounted(self):
        tracer = Tracer()
        forward(tracer, 1.0, "f-1")
        forward(tracer, 1.2, "f-2")
        deliver(tracer, 1.3, "f-2")
        tracer.emit(
            2.0,
            "broker",
            "mqtt.broker.inflight_dropped",
            client="c",
            reason="expired",
            fwd_ids=["f-1"],
        )
        report = check(tracer)
        assert report.ok
        assert report.metrics["qos1_dropped_explained"] == 1
        assert report.metrics["qos1_explained_loss_rate"] == 0.5

    def test_duplicate_deliveries_counted_not_failed(self):
        tracer = Tracer()
        forward(tracer, 1.0, "f-1")
        deliver(tracer, 1.1, "f-1")
        deliver(tracer, 1.6, "f-1", dup=True)
        report = check(tracer)
        assert report.ok  # dups are the dedup stage's problem, not loss
        assert report.metrics["qos1_duplicate_deliveries"] == 1


class TestMlDedup:
    def test_unique_samples_pass(self):
        tracer = Tracer()
        tracer.emit(1.0, "train.app.t@m", "ml.trained", sample_id="s-1")
        tracer.emit(2.0, "train.app.t@m", "ml.trained", sample_id="s-2")
        report = check(tracer)
        assert report.ok
        assert report.metrics["ml_records"] == 2

    def test_duplicate_sample_fails(self):
        tracer = Tracer()
        tracer.emit(1.0, "train.app.t@m", "ml.trained", sample_id="s-1")
        tracer.emit(2.0, "train.app.t@m", "ml.trained", sample_id="s-1")
        report = check(tracer)
        assert not report.ok
        (failure,) = report.failed()
        assert failure.name == "ml-effectively-once"
        assert "s-1" in failure.detail

    def test_same_sample_on_different_operators_is_fine(self):
        tracer = Tracer()
        tracer.emit(1.0, "train.app.t@m1", "ml.trained", sample_id="s-1")
        tracer.emit(2.0, "predict.app.p@m2", "ml.judged", sample_id="s-1")
        assert check(tracer).ok


class TestRecovery:
    SPEC = RecoveryCheck(
        fault_kind="node_crash", signal_event="mgmt.failover_moved", bound_s=5.0
    )

    def test_signal_within_bound_passes(self):
        tracer = Tracer()
        tracer.emit(10.0, "chaos", "chaos.fault", kind="node_crash", node="m")
        tracer.emit(13.0, "mgmt", "mgmt.failover_moved", subtask="t")
        report = check(tracer, recovery=(self.SPEC,))
        assert report.ok
        assert report.metrics["recovery_s:node_crash"] == 3.0

    def test_signal_beyond_bound_fails(self):
        tracer = Tracer()
        tracer.emit(10.0, "chaos", "chaos.fault", kind="node_crash", node="m")
        tracer.emit(17.0, "mgmt", "mgmt.failover_moved", subtask="t")
        report = check(tracer, recovery=(self.SPEC,))
        assert not report.ok

    def test_missing_signal_fails(self):
        tracer = Tracer()
        tracer.emit(10.0, "chaos", "chaos.fault", kind="node_crash", node="m")
        report = check(tracer, recovery=(self.SPEC,))
        assert not report.ok
        assert "no signal" in report.failed()[0].detail

    def test_fault_never_injected_fails(self):
        report = check(Tracer(), recovery=(self.SPEC,))
        assert not report.ok
        assert "never injected" in report.failed()[0].detail

    def test_measure_from_restored(self):
        spec = RecoveryCheck(
            fault_kind="partition",
            signal_event="mqtt.client.resubscribed",
            bound_s=2.0,
            measure_from="restored",
        )
        tracer = Tracer()
        tracer.emit(10.0, "chaos", "chaos.fault", kind="partition")
        tracer.emit(16.0, "chaos", "chaos.restored", kind="partition")
        tracer.emit(17.0, "mqtt.client.c", "mqtt.client.resubscribed", count=2)
        assert check(tracer, recovery=(spec,)).ok

    def test_source_filter(self):
        spec = RecoveryCheck(
            fault_kind="partition",
            signal_event="mqtt.client.resubscribed",
            bound_s=2.0,
            source_contains="module-a",
        )
        tracer = Tracer()
        tracer.emit(10.0, "chaos", "chaos.fault", kind="partition")
        tracer.emit(11.0, "mqtt.client.module-b.mqtt-1", "mqtt.client.resubscribed")
        report = check(tracer, recovery=(spec,))
        assert not report.ok  # only the wrong client resubscribed


class TestReport:
    def test_render_shows_verdicts(self):
        tracer = Tracer()
        forward(tracer, 1.0, "f-1")
        rendered = check(tracer).render()
        assert "invariants: FAIL" in rendered
        assert "qos1-no-silent-loss" in rendered
        deliver(tracer, 1.1, "f-1")
        assert "invariants: PASS" in check(tracer).render()


class TestRecoveryReport:
    def synthetic_trace(self) -> Tracer:
        tracer = Tracer()
        tracer.emit(10.0, "chaos", "chaos.fault", kind="node_crash", node="m-d")
        tracer.emit(13.9, "detector@mgmt", "detector.confirm", module="m-d")
        tracer.emit(
            14.0,
            "mgmt",
            "mgmt.failover_moved",
            application="app",
            subtask="train",
            from_module="m-d",
            to_module="m-c",
        )
        tracer.emit(
            20.0,
            "mgmt",
            "migrate.start",
            migration="migration-0",
            application="app",
            subtask="train",
            from_module="m-c",
            to_module="m-d",
        )
        tracer.emit(
            20.3, "agent@m-c", "migrate.state_sent", migration="migration-0",
            buffered=2,
        )
        tracer.emit(
            20.4, "agent@m-c", "migrate.released", migration="migration-0",
            tail=3,
        )
        tracer.emit(
            20.5, "agent@m-d", "migrate.done", migration="migration-0",
            replayed=4, skipped=1,
        )
        tracer.emit(
            25.0, "mgmt", "mgmt.load_shed", application="batch", priority=0
        )
        tracer.emit(
            25.0, "mgmt", "mgmt.degraded", residual=0.4, capacity=1.5
        )
        return tracer

    def test_parses_detection_migration_and_shedding(self):
        report = recovery_report(self.synthetic_trace())
        assert [f["kind"] for f in report.faults] == ["node_crash"]
        (detection,) = report.detections
        assert detection["signal"] == "detector.confirm"
        assert detection["latency_s"] == pytest.approx(3.9)
        (migration,) = report.migrations
        assert migration["duration_s"] == pytest.approx(0.5)
        assert migration["snapshot"] == 2
        assert migration["tail"] == 3
        assert migration["skipped"] == 1
        assert [entry["application"] for entry in report.shed] == ["batch"]
        assert report.degraded[0]["residual"] == pytest.approx(0.4)
        rendered = report.render()
        assert "node_crash" in rendered
        assert "migration-0" in rendered
        assert "shed batch" in rendered

    def test_undetected_fault_is_reported_as_such(self):
        tracer = Tracer()
        tracer.emit(5.0, "chaos", "chaos.fault", kind="partition", stations="a|b")
        report = recovery_report(tracer)
        (detection,) = report.detections
        assert detection["latency_s"] is None
        assert "never detected" in report.render()

    def test_restart_noticed_via_failback_migration(self):
        tracer = Tracer()
        tracer.emit(18.0, "chaos", "chaos.fault", kind="node_restart", node="m-d")
        tracer.emit(
            20.1, "mgmt", "migrate.start", migration="migration-0",
            application="app", subtask="train",
            from_module="m-c", to_module="m-d",
        )
        report = recovery_report(tracer)
        (detection,) = report.detections
        assert detection["signal"] == "migrate.start"
        assert detection["latency_s"] == pytest.approx(2.1)
