"""WLAN chaos features: partitions, link degradation, bursty loss."""

import pytest

from repro.net.address import Address
from repro.net.wlan import GilbertElliottConfig, WlanConfig, WlanMedium
from repro.sim.kernel import SimKernel
from repro.util.rng import RngRegistry


def make_wlan(**config):
    kernel = SimKernel()
    defaults = dict(jitter_s=0.0, propagation_delay_s=0.0)
    defaults.update(config)
    return kernel, WlanMedium(kernel, config=WlanConfig(**defaults))


def wire(wlan, *names):
    return [wlan.attach(name) for name in names]


class TestPartition:
    def test_partitioned_frames_never_deliver(self):
        kernel, wlan = make_wlan()
        a, b = wire(wlan, "a", "b")
        got = []
        b.bind("s", lambda src, data: got.append(data))
        wlan.partition(("a",), ("b",))
        a.send("c", Address("b", "s"), b"x")
        kernel.run()
        assert got == []
        assert wlan.frames_partitioned == 1

    def test_partitioned_frames_still_burn_airtime(self):
        # A sender with no route still occupies the channel (its radio
        # does not know the receiver is unreachable).
        kernel, wlan = make_wlan(bitrate_bps=8e3, per_frame_overhead_s=0.0)
        a, b, c = wire(wlan, "a", "b", "c")
        got = []
        c.bind("s", lambda src, data: got.append(kernel.now))
        wlan.partition(("a",), ("b",))
        payload = b"x" * (100 - 64)  # 100 B wire = 0.1 s airtime
        a.send("s", Address("b", "s"), payload)  # blocked, but transmits
        a.send("s", Address("c", "s"), payload)  # queues behind it
        kernel.run()
        assert got == [pytest.approx(0.2)]

    def test_heal_restores_delivery(self):
        kernel, wlan = make_wlan()
        a, b = wire(wlan, "a", "b")
        got = []
        b.bind("s", lambda src, data: got.append(data))
        wlan.partition(("a",), ("b",))
        wlan.heal(("a",), ("b",))
        a.send("c", Address("b", "s"), b"x")
        kernel.run()
        assert got == [b"x"]

    def test_traffic_within_groups_unaffected(self):
        kernel, wlan = make_wlan()
        a, a2, b = wire(wlan, "a", "a2", "b")
        got = []
        a2.bind("s", lambda src, data: got.append(data))
        wlan.partition(("a", "a2"), ("b",))
        a.send("c", Address("a2", "s"), b"x")
        kernel.run()
        assert got == [b"x"]


class TestDegradeLink:
    def test_bitrate_throttle_stretches_airtime(self):
        kernel, wlan = make_wlan(bitrate_bps=8e3, per_frame_overhead_s=0.0)
        a, b = wire(wlan, "a", "b")
        got = []
        b.bind("s", lambda src, data: got.append(kernel.now))
        wlan.degrade_link(bitrate_factor=0.5)
        a.send("c", Address("b", "s"), b"x" * (100 - 64))  # 0.1 s nominal
        kernel.run()
        assert got == [pytest.approx(0.2)]

    def test_station_scoped_degradation(self):
        kernel, wlan = make_wlan(bitrate_bps=8e3, per_frame_overhead_s=0.0)
        a, b, c = wire(wlan, "a", "b", "c")
        times = {}
        c.bind("s", lambda src, data: times.setdefault(str(src), kernel.now))
        wlan.degrade_link(stations={"a"}, bitrate_factor=0.5)
        payload = b"x" * (100 - 64)
        b.send("s", Address("c", "s"), payload)  # unaffected: 0.1 s
        kernel.run()
        a.send("s", Address("c", "s"), payload)  # throttled: 0.2 s
        kernel.run()
        assert times["b/s"] == pytest.approx(0.1)
        assert times["a/s"] == pytest.approx(0.1 + 0.2)

    def test_restore_link_by_handle(self):
        kernel, wlan = make_wlan()
        handle = wlan.degrade_link(bitrate_factor=0.5)
        assert wlan.degradations_active == 1
        assert wlan.restore_link(handle)
        assert wlan.degradations_active == 0
        assert not wlan.restore_link(handle)  # second restore: no-op

    def test_timed_degradation_expires(self):
        kernel, wlan = make_wlan(bitrate_bps=8e3, per_frame_overhead_s=0.0)
        a, b = wire(wlan, "a", "b")
        got = []
        b.bind("s", lambda src, data: got.append(kernel.now))
        wlan.degrade_link(bitrate_factor=0.5, duration_s=1.0)
        kernel.schedule(
            2.0, lambda: a.send("c", Address("b", "s"), b"x" * (100 - 64))
        )
        kernel.run()
        assert got == [pytest.approx(2.1)]  # nominal airtime again


class TestGilbertElliott:
    def test_always_bad_loses_everything(self):
        kernel, wlan = make_wlan()
        a, b = wire(wlan, "a", "b")
        got = []
        b.bind("s", lambda src, data: got.append(data))
        wlan.degrade_link(
            burst=GilbertElliottConfig(p_enter=1.0, p_exit=1e-9, loss_bad=1.0)
        )
        for _ in range(20):
            a.send("c", Address("b", "s"), b"x")
        kernel.run()
        assert got == []
        assert wlan.frames_lost == 20

    def test_never_entering_bad_loses_nothing(self):
        kernel, wlan = make_wlan()
        a, b = wire(wlan, "a", "b")
        got = []
        b.bind("s", lambda src, data: got.append(data))
        wlan.degrade_link(
            burst=GilbertElliottConfig(p_enter=0.0, p_exit=1.0, loss_bad=1.0)
        )
        for _ in range(20):
            a.send("c", Address("b", "s"), b"x")
        kernel.run()
        assert len(got) == 20

    def test_losses_cluster_into_bursts(self):
        # With rare entry and certain in-burst loss, losses arrive as
        # consecutive runs, unlike an i.i.d. channel of the same rate.
        kernel, wlan = make_wlan()
        a, b = wire(wlan, "a", "b")
        received_ids = []
        b.bind("s", lambda src, data: received_ids.append(int(data)))
        wlan.degrade_link(
            burst=GilbertElliottConfig(p_enter=0.05, p_exit=0.3, loss_bad=1.0)
        )
        total = 400
        for i in range(total):
            a.send("c", Address("b", "s"), str(i).encode())
        kernel.run()
        lost = sorted(set(range(total)) - set(received_ids))
        assert lost, "expected some bursty loss"
        runs, previous = [], None
        for frame in lost:
            if previous is not None and frame == previous + 1:
                runs[-1] += 1
            else:
                runs.append(1)
            previous = frame
        # Mean burst length 1/p_exit ~ 3.3 frames: multi-frame runs exist.
        assert max(runs) >= 2


class TestRngSeam:
    def test_same_registry_seed_same_outcome(self):
        def run(seed):
            kernel = SimKernel()
            wlan = WlanMedium(
                kernel,
                config=WlanConfig(loss_rate=0.3, propagation_delay_s=0.0),
                rng=RngRegistry(seed).fork("wlan"),
            )
            a, b = wire(wlan, "a", "b")
            got = []
            b.bind("s", lambda src, data: got.append(data))
            for i in range(50):
                a.send("c", Address("b", "s"), str(i).encode())
            kernel.run()
            return got

        assert run(4) == run(4)
        assert run(4) != run(5)
