"""Edge cases of the self-healing control plane.

Each test drives one of the awkward interleavings the pause -> drain ->
transfer -> resume protocol must survive: stateful operators moved (or
killed) mid-window, the broker dying while a migration is draining, the
migration target dying mid-transfer, and dead-incarnation heartbeats
arriving after the verdict.
"""

from __future__ import annotations

import pytest

from repro.chaos import Invariants, build_chaos_cluster, build_chaos_recipe
from repro.core.flow import FlowRecord, topic_for_stream
from repro.core.recipe import Recipe, TaskSpec
from repro.core.splitter import SubTask
from repro.errors import DeploymentError
from repro.ml.features import Datum
from repro.mqtt.client import MqttClient

APP = "edge-app"
APP_CHAOS = "chaos-app"


def windowed_recipe(
    count: int = 8, rate_hz: float = 2.0, capabilities: tuple[str, ...] = ("compute",)
) -> Recipe:
    """Sensor -> count window: the window's partial batch is the state
    that must survive a live migration."""
    return Recipe(
        APP,
        [
            TaskSpec(
                "sense",
                "sensor",
                outputs=["raw"],
                params={"device": "sample", "rate_hz": rate_hz, "qos": 1},
                pin_to="module-a",
                capabilities=["sensor:sample"],
            ),
            TaskSpec(
                "window",
                "window",
                inputs=["raw"],
                outputs=["batch"],
                params={"mode": "count", "count": count, "qos": 1},
                capabilities=list(capabilities),
            ),
        ],
    )


def batch_probe(runtime, cluster, application: str = APP):
    """Collect every merged batch record the window emits."""
    probe = MqttClient(
        runtime.add_node("probe"), cluster.broker.address, client_id="probe"
    )
    probe.connect()
    batches: list[FlowRecord] = []
    probe.subscribe(
        topic_for_stream(application, "batch"),
        lambda t, p, pkt: batches.append(FlowRecord.from_payload(p)),
        qos=1,
    )
    return batches


def contributing_ids(batches: list[FlowRecord]) -> list[str]:
    ids: list[str] = []
    for record in batches:
        ids.extend(record.merged_ids or [record.sample_id])
    return ids


def redeliver_once(runtime, cluster, topic_filter, delay_s, match=lambda payload: True):
    """Re-publish the first matching control message once, ``delay_s`` later:
    what a broker retransmission after a lost PUBACK looks like to whoever
    is subscribed. Returns the list the redelivered topic is recorded in."""
    client = MqttClient(
        runtime.add_node("redeliver"), cluster.broker.address, client_id="redeliver"
    )
    client.connect()
    seen: list[str] = []

    def on_message(topic, payload, _packet):
        if not seen and match(payload):  # its own re-publish comes back too
            seen.append(topic)
            runtime.call_later(delay_s, client.publish, topic, payload, 1)

    client.subscribe(topic_filter, on_message, qos=1)
    return seen


def sensed_ids(runtime) -> list[str]:
    return [r["sample_id"] for r in runtime.tracer.select(event="sensor.sample")]


def lost_and_duplicated(runtime, batches: list[FlowRecord]) -> tuple[list[str], int]:
    """Sensed samples missing from the emitted batches, not counting the
    newest ones (still in flight or in the window's partial batch), and
    how many ids some batch counted a second time."""
    ids = contributing_ids(batches)
    batched = set(ids)
    sensed = sensed_ids(runtime)
    unbatched = [sample for sample in sensed if sample not in batched]
    newest = set(sensed[len(sensed) - len(unbatched) :])
    return [s for s in unbatched if s not in newest], len(ids) - len(batched)


def hosts_of(cluster, key: str) -> list[str]:
    return [name for name, m in cluster.modules.items() if key in m.operators]


class TestStatefulMigration:
    def test_mid_window_migration_loses_and_duplicates_nothing(self):
        runtime, cluster = build_chaos_cluster(seed=3)
        batches = batch_probe(runtime, cluster)
        app = cluster.submit(windowed_recipe(count=8))
        cluster.settle(2.0)
        source = app.assignment.module_for("window")
        target = next(
            name
            for name in ("module-c", "module-d")
            if name != source
        )
        # Let the window partially fill (count=8 at 2 Hz -> 4 s/batch),
        # then move it mid-batch.
        cluster.settle(1.6)
        operator = cluster.module(source).operators[f"{APP}/window"]
        assert operator._batch, "precondition: migration must be mid-window"
        staged = len(operator._batch)
        migration = cluster.management.migrate_subtask(APP, "window", target)
        assert migration is not None
        cluster.settle(12.0)
        # The partial batch travelled with the operator...
        assert any(
            r.event == "migrate.done"
            for r in runtime.tracer.select(event="migrate.done")
        )
        assert app.assignment.placements["window"] == target
        assert f"{APP}/window" not in cluster.module(source).operators
        successor = cluster.module(target).operators[f"{APP}/window"]
        assert successor.windows_emitted >= 1
        # ...so every sensed sample lands in exactly one emitted batch:
        # no loss at the seam, no double-count of the staged records.
        ids = contributing_ids(batches)
        assert len(ids) == len(set(ids))
        assert len(ids) >= staged + 8
        report = Invariants(runtime.tracer, cluster).check()
        assert report.ok, [c.detail for c in report.failed()]

    def test_host_crash_mid_window_recovers_without_duplicates(self):
        runtime, cluster = build_chaos_cluster(seed=4)
        batches = batch_probe(runtime, cluster)
        app = cluster.submit(windowed_recipe(count=8))
        cluster.settle(3.5)
        victim = app.assignment.module_for("window")
        operator = cluster.module(victim).operators[f"{APP}/window"]
        assert operator._batch, "precondition: crash must hit mid-window"
        before = len(batches)
        cluster.module(victim).node.fail()
        cluster.settle(20.0)
        # Failover re-placed the window on the surviving compute module
        # and batches keep coming. The partial batch died with the node
        # (amnesia crash, unlike a migration) — but nothing is ever
        # emitted twice.
        moved = list(runtime.tracer.select(event="mgmt.failover_moved"))
        assert any(m["subtask"] == "window" for m in moved)
        assert app.assignment.placements["window"] != victim
        assert len(batches) > before
        ids = contributing_ids(batches)
        assert len(ids) == len(set(ids))
        report = Invariants(runtime.tracer, cluster).check()
        assert report.ok, [c.detail for c in report.failed()]


class TestMigrationFailures:
    def test_broker_restart_during_drain_converges(self):
        """The broker dies while the source is draining: the state
        message is in limbo. Whether the transfer completes after the
        reconnect or times out and aborts, exactly one live instance
        must survive and the stream must keep flowing."""
        runtime, cluster = build_chaos_cluster(seed=5)
        app = cluster.submit(build_chaos_recipe())
        cluster.settle(3.0)
        source = app.assignment.module_for("train")
        target = next(n for n in ("module-c", "module-d") if n != source)
        migration = cluster.management.migrate_subtask(APP_CHAOS, "train", target)
        assert migration is not None
        cluster.settle(0.1)  # mid-drain (drain_s = 0.25)
        cluster.restart_broker()
        cluster.settle(20.0)
        outcomes = [
            r.event
            for r in runtime.tracer
            if r.event in ("migrate.done", "migrate.aborted")
            and r.fields.get("migration") == migration
        ]
        assert outcomes, "migration must resolve one way or the other"
        placed_on = app.assignment.placements["train"]
        instances = [
            name
            for name, module in cluster.modules.items()
            if f"{APP_CHAOS}/train" in module.operators
        ]
        assert instances == [placed_on]
        trained = list(runtime.tracer.select(event="ml.trained"))
        assert trained and trained[-1].time > runtime.now - 5.0
        report = Invariants(runtime.tracer, cluster).check()
        assert report.ok, [c.detail for c in report.failed()]

    def test_target_dies_mid_transfer_repicks_a_survivor(self):
        """Double failure: the module adopting the sub-task dies before
        it can acknowledge. The abort path must re-place the sub-task on
        surviving capacity instead of stranding it."""
        runtime, cluster = build_chaos_cluster(seed=6)
        app = cluster.submit(build_chaos_recipe())
        cluster.settle(3.0)
        source = app.assignment.module_for("train")
        target = next(n for n in ("module-c", "module-d") if n != source)
        migration = cluster.management.migrate_subtask(APP_CHAOS, "train", target)
        assert migration is not None
        cluster.settle(0.1)  # pause delivered, drain in progress
        cluster.module(target).node.fail()
        cluster.settle(20.0)
        aborted = [
            r
            for r in runtime.tracer.select(event="migrate.aborted")
            if r.fields.get("migration") == migration
        ]
        assert aborted, "losing the target must abort the migration"
        placed_on = app.assignment.placements["train"]
        assert placed_on != target
        assert cluster.module(placed_on).node.alive
        assert f"{APP_CHAOS}/train" in cluster.module(placed_on).operators
        trained = list(runtime.tracer.select(event="ml.trained"))
        assert trained and trained[-1].time > runtime.now - 5.0
        report = Invariants(runtime.tracer, cluster).check()
        assert report.ok, [c.detail for c in report.failed()]


class TestHandoffMachineHoles:
    """Three interleavings the implicit pause/transfer machine let through;
    each failed before the handoff became an explicit state machine."""

    def busy_window(self, capabilities=("compute",)):
        runtime, cluster = build_chaos_cluster(seed=3)
        batches = batch_probe(runtime, cluster)
        app = cluster.submit(
            windowed_recipe(count=4, rate_hz=20.0, capabilities=capabilities)
        )
        cluster.settle(3.0)
        source = app.assignment.module_for("window")
        spare = [n for n in ("module-b", "module-c", "module-d") if n != source]
        return runtime, cluster, batches, spare

    def test_redelivered_pause_does_not_snapshot_twice(self):
        runtime, cluster, batches, spare = self.busy_window()
        redelivered = redeliver_once(
            runtime, cluster, "ifot/ctl/module/+/pause", delay_s=0.030
        )
        cluster.settle(0.5)
        assert cluster.management.migrate_subtask(APP, "window", spare[-1])
        cluster.settle(10.0)
        assert redelivered, "precondition: the pause was delivered twice"
        assert len(list(runtime.tracer.select(event="migrate.state_sent"))) == 1
        assert len(list(runtime.tracer.select(event="migrate.done"))) == 1
        assert lost_and_duplicated(runtime, batches) == ([], 0)
        report = Invariants(runtime.tracer, cluster).check()
        assert report.ok, [c.detail for c in report.failed()]

    def test_stop_application_aborts_its_inflight_handoff(self):
        runtime, cluster, _batches, spare = self.busy_window()
        migration = cluster.management.migrate_subtask(APP, "window", spare[-1])
        cluster.settle(0.30)  # paused and draining, or the snapshot in flight
        cluster.management.stop_application(APP)
        cluster.settle(15.0)
        assert hosts_of(cluster, f"{APP}/window") == []
        assert hosts_of(cluster, f"{APP}/sense") == []
        events = [
            (r.event, r.fields.get("reason"))
            for r in runtime.tracer
            if r.event.startswith("migrate.") and r["migration"] == migration
        ]
        assert ("migrate.aborted", "stopped") in events
        after = [event for event, _ in events[events.index(("migrate.aborted", "stopped")) :]]
        assert "migrate.adopted" not in after and "migrate.redeployed" not in after
        report = Invariants(runtime.tracer, cluster).check()
        assert report.ok, [c.detail for c in report.failed()]

    @pytest.mark.parametrize("gap_s", [0.0, 0.050])
    def test_moving_subtask_cannot_be_migrated_again(self, gap_s):
        runtime, cluster, batches, spare = self.busy_window(capabilities=())
        first = cluster.management.migrate_subtask(APP, "window", spare[0])
        cluster.settle(gap_s)
        with pytest.raises(DeploymentError, match="already migrating"):
            cluster.management.migrate_subtask(APP, "window", spare[1])
        cluster.settle(15.0)
        done = list(runtime.tracer.select(event="migrate.done"))
        assert [r["migration"] for r in done] == [first]
        assert hosts_of(cluster, f"{APP}/window") == [spare[0]]
        assert lost_and_duplicated(runtime, batches) == ([], 0)
        report = Invariants(runtime.tracer, cluster).check()
        assert report.ok, [c.detail for c in report.failed()]


class TestIncarnationHygiene:
    def test_restart_after_confirm_is_a_fresh_incarnation(self):
        """A crash is confirmed, then the module reboots: the detector
        must track the successor incarnation from scratch instead of
        resurrecting (or re-condemning) the dead one, and the crash must
        produce exactly one failover."""
        runtime, cluster = build_chaos_cluster(seed=7)
        app = cluster.submit(build_chaos_recipe())
        cluster.settle(3.0)
        victim = app.assignment.module_for("train")
        old_incarnation = cluster.module(victim).node.incarnation
        cluster.module(victim).node.fail()
        cluster.settle(10.0)
        moved = [
            r
            for r in runtime.tracer.select(event="mgmt.failover_moved")
            if r.fields.get("from_module") == victim
        ]
        assert len(moved) == 1
        detector = cluster.management.detector
        assert detector is not None
        assert victim not in detector.peers  # tombstone -> forget
        cluster.restart_module(victim)
        cluster.settle(6.0)
        peer = detector.peers[victim]
        assert peer.incarnation == old_incarnation + 1
        assert peer.state == "alive"
        # Still exactly one failover for the one crash: the rejoin and
        # fail-back never re-trigger it.
        moved_after = [
            r
            for r in runtime.tracer.select(event="mgmt.failover_moved")
            if r.fields.get("from_module") == victim
        ]
        assert len(moved_after) == 1
        report = Invariants(runtime.tracer, cluster).check()
        assert report.ok, [c.detail for c in report.failed()]


class TestGracefulDegradation:
    def rate_recipe(self, name: str, priority: int) -> Recipe:
        return Recipe(
            name,
            [
                TaskSpec(
                    "sense",
                    "sensor",
                    outputs=["raw"],
                    params={"device": "sample", "rate_hz": 40, "qos": 1},
                    pin_to="module-a",
                    capabilities=["sensor:sample"],
                ),
                TaskSpec(
                    "train",
                    "train",
                    inputs=["raw"],
                    params={"model": "classifier", "label_key": "label", "qos": 1},
                    capabilities=["compute"],
                ),
            ],
            priority=priority,
        )

    def test_insufficient_capacity_sheds_lowest_priority_app(self):
        """Losing a compute module leaves demand (2 x 1.22 util) above
        the surviving capacity (2.0): the low-priority app is shed, the
        high-priority one keeps running, and the degraded-mode status is
        published retained."""
        from repro.core.middleware import IFoTCluster
        from repro.runtime.sim import SimRuntime
        from repro.sensors.devices import FixedPayloadModel

        runtime = SimRuntime(seed=9)
        cluster = IFoTCluster(
            runtime,
            heartbeat_s=2.0,
            auto_failover=True,
            client_keepalive_s=2.0,
            auto_reconnect=True,
            broker_params={
                "sweep_interval_s": 2.0,
                "retry_interval_s": 0.5,
                "max_retries": 8,
            },
        )
        sensor_host = cluster.add_module("module-a")
        sensor_host.attach_sensor("sample", FixedPayloadModel(values=3))
        cluster.add_module("module-c", extra_capabilities={"compute"})
        cluster.add_module("module-d", extra_capabilities={"compute"})
        cluster.settle(3.0)
        cluster.submit(self.rate_recipe("batch-app", priority=0))
        alarm = cluster.submit(self.rate_recipe("alarm-app", priority=5))
        cluster.settle(3.0)

        status: list[dict] = []
        cluster.management.module.client.subscribe(
            "ifot/ctl/status/degraded", lambda t, p, pkt: status.append(p)
        )
        victim = alarm.assignment.module_for("train")
        cluster.module(victim).node.fail()
        cluster.settle(12.0)

        mgmt = cluster.management
        assert mgmt.load_sheds_performed == 1
        assert mgmt.degraded_applications == ["batch-app"]
        shed = list(runtime.tracer.select(event="mgmt.load_shed"))
        assert [r["application"] for r in shed] == ["batch-app"]
        # The shed app is gone; the high-priority one was failed over and
        # keeps training on the surviving compute module.
        assert "batch-app" not in mgmt._led
        survivor = alarm.assignment.module_for("train")
        assert survivor not in (victim,)
        assert "alarm-app/train" in cluster.module(survivor).operators
        trained = list(runtime.tracer.select(event="ml.trained"))
        assert trained and trained[-1].source.endswith(f"@{survivor}")
        # Degraded-mode status is published retained.
        assert status and status[-1]["applications"] == ["batch-app"]


class TestHandoffDedup:
    """Operator-level exactly-once across overlapping live + replay."""

    def make_pair(self):
        runtime, cluster = build_chaos_cluster(seed=8)
        subtask = SubTask(
            subtask_id="dedup",
            task_id="dedup",
            operator="dedup",
            inputs=["raw"],
            outputs=["clean"],
            params={},
        )
        source = cluster.module("module-c").deploy(APP, subtask)
        cluster.settle(0.5)
        return runtime, cluster, subtask, source

    def record(self, runtime, n: int) -> FlowRecord:
        return FlowRecord(
            sample_id=f"s-{n}",
            source="probe",
            sensed_at=runtime.now,
            datum=Datum.from_mapping({"v": float(n)}),
        )

    def test_paused_operator_buffers_instead_of_processing(self):
        runtime, cluster, subtask, source = self.make_pair()
        source.pause()
        for n in range(3):
            source._dispatch("raw", self.record(runtime, n))
        assert source.records_in == 0
        assert source.records_buffered == 3
        assert len(source.take_handoff_buffer()) == 3
        assert source.take_handoff_buffer() == []  # drained exactly once

    def test_absorb_handoff_skips_live_seen_samples(self):
        runtime, cluster, subtask, source = self.make_pair()
        source.pause()
        buffered = []
        for n in range(4):
            rec = self.record(runtime, n)
            source._dispatch("raw", rec)
            buffered.append(("raw", rec))
        target = cluster.module("module-d").deploy(APP, subtask)
        target.begin_handoff_tracking()
        # Overlap window: samples 2 and 3 also arrive via the target's
        # own live subscription before the tail is replayed.
        target._dispatch("raw", self.record(runtime, 2))
        target._dispatch("raw", self.record(runtime, 3))
        cluster.settle(0.2)
        target.absorb_handoff(buffered, final=True)
        cluster.settle(0.2)
        assert target.handoff_skipped == 2
        assert target.records_in == 4  # 2 live + 2 replayed, none twice
        # final=True ended tracking: later records process normally.
        target._dispatch("raw", self.record(runtime, 9))
        assert target.records_in == 5

    def test_absorb_without_tracking_replays_everything(self):
        runtime, cluster, subtask, source = self.make_pair()
        source.pause()
        buffered = []
        for n in range(2):
            rec = self.record(runtime, n)
            source._dispatch("raw", rec)
            buffered.append(("raw", rec))
        target = cluster.module("module-d").deploy(APP, subtask)
        target.absorb_handoff(buffered)
        cluster.settle(0.2)
        assert target.handoff_skipped == 0
        assert target.records_in == 2
