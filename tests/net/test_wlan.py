"""The shared-channel WLAN model: airtime per frame, FIFO channel
serialization, loss, interference windows and the jitter draw. Delivery
instants are pinned bit for bit against ``WlanConfig.airtime`` plus
``Random.uniform(0.0, jitter_s)`` from a same-seeded stream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.address import Address
from repro.net.frame import LINK_HEADER_BYTES
from repro.net.wlan import WlanConfig, WlanMedium
from repro.sim.kernel import SimKernel
from repro.util.rng import RngRegistry


def make_wlan(**config) -> tuple[SimKernel, WlanMedium]:
    kernel = SimKernel()
    defaults = dict(jitter_s=0.0, propagation_delay_s=0.0)
    defaults.update(config)
    return kernel, WlanMedium(kernel, config=WlanConfig(**defaults))


def test_airtime_formula():
    config = WlanConfig(bitrate_bps=1e6, per_frame_overhead_s=1e-3)
    assert config.airtime(125) == pytest.approx(1e-3 + 1e-3)  # 125B = 1000 bits


def test_delivery_after_airtime():
    kernel, wlan = make_wlan(bitrate_bps=8e3, per_frame_overhead_s=0.0)
    a = wlan.attach("a")
    b = wlan.attach("b")
    got = []
    b.bind("s", lambda src, data: got.append(kernel.now))
    a.send("c", Address("b", "s"), b"x" * (100 - 64))  # wire 100B = 800 bits = 0.1s
    kernel.run()
    assert got == [pytest.approx(0.1)]


def test_channel_serializes_concurrent_transmissions():
    kernel, wlan = make_wlan(bitrate_bps=8e3, per_frame_overhead_s=0.0)
    a = wlan.attach("a")
    b = wlan.attach("b")
    c = wlan.attach("c")
    got = []
    c.bind("s", lambda src, data: got.append((str(src), kernel.now)))
    payload = b"x" * (100 - 64)
    a.send("c", Address("c", "s"), payload)
    b.send("c", Address("c", "s"), payload)
    kernel.run()
    # Second frame waits for the channel: 0.1 + 0.1.
    assert got == [("a/c", pytest.approx(0.1)), ("b/c", pytest.approx(0.2))]


def test_channel_backlog():
    kernel, wlan = make_wlan(bitrate_bps=8e3, per_frame_overhead_s=0.0)
    a = wlan.attach("a")
    wlan.attach("b")
    payload = b"x" * (100 - 64)
    a.send("c", Address("b", "s"), payload)
    a.send("c", Address("b", "s"), payload)
    # Frames hit the channel when the epilogue flush for t=0 runs.
    kernel.run(until=0.0)
    assert wlan.channel_backlog == pytest.approx(0.2)
    kernel.run()
    assert wlan.channel_backlog == 0.0


def test_loss_rate_drops_frames():
    kernel = SimKernel()
    wlan = WlanMedium(
        kernel,
        config=WlanConfig(loss_rate=1.0, jitter_s=0.0),
    )
    a = wlan.attach("a")
    b = wlan.attach("b")
    got = []
    b.bind("s", lambda src, data: got.append(data))
    a.send("c", Address("b", "s"), b"x")
    kernel.run()
    assert got == []
    assert wlan.frames_lost == 1
    # Airtime is still burnt by lost frames.
    assert wlan.total_airtime > 0


def test_detached_station_frames_vanish():
    kernel, wlan = make_wlan()
    a = wlan.attach("a")
    wlan.attach("b")
    a.send("c", Address("b", "s"), b"x")
    wlan.detach("b")
    kernel.run()  # no exception


def test_utilization_accounts_airtime():
    kernel, wlan = make_wlan(bitrate_bps=8e3, per_frame_overhead_s=0.0)
    a = wlan.attach("a")
    b = wlan.attach("b")
    b.bind("s", lambda src, data: None)
    a.send("c", Address("b", "s"), b"x" * (100 - 64))
    kernel.run(until=1.0)
    assert wlan.utilization() == pytest.approx(0.1)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        WlanConfig(bitrate_bps=0).validate()
    with pytest.raises(ConfigurationError):
        WlanConfig(loss_rate=1.5).validate()
    with pytest.raises(ConfigurationError):
        WlanConfig(per_frame_overhead_s=-1.0).validate()


def test_jitter_is_deterministic_per_seed():
    def run(seed):
        kernel = SimKernel()
        wlan = WlanMedium(
            kernel,
            config=WlanConfig(jitter_s=1e-3, propagation_delay_s=0.0),
            rng=RngRegistry(seed).fork("wlan"),
        )
        a = wlan.attach("a")
        b = wlan.attach("b")
        got = []
        b.bind("s", lambda src, data: got.append(kernel.now))
        a.send("c", Address("b", "s"), b"x")
        kernel.run()
        return got[0]

    assert run(1) == run(1)
    assert run(1) != run(2)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    jitter_s=st.sampled_from([0.0, 1e-9, 0.4e-3, 3e-3]),
    bitrate_bps=st.sampled_from([20e6, 1e6, 54e6 / 7]),
    first=st.integers(0, 36),
    gaps=st.lists(st.sampled_from([0.0, 1e-4, 1e-3, 0.05]), min_size=1, max_size=8),
)
def test_delivery_instants_match_airtime_plus_uniform_jitter(
    seed, jitter_s, bitrate_bps, first, gaps
):
    """Frames of every 37th size up to 1500 B are offered after cycling gaps;
    the reference replays the channel with ``config.airtime`` and
    ``uniform(0.0, jitter_s)`` on the same stream, so a one-ulp drift in
    either formula fails."""
    config = WlanConfig(bitrate_bps=bitrate_bps, jitter_s=jitter_s)
    offered = [(gaps[i % len(gaps)], size) for i, size in enumerate(range(first, 1501, 37))]
    kernel = SimKernel()
    wlan = WlanMedium(kernel, config=config, rng=RngRegistry(seed).fork("wlan"))
    a = wlan.attach("a")
    b = wlan.attach("b")
    got = []
    b.bind("s", lambda src, data: got.append(kernel.now))
    at = 0.0
    for gap, size in offered:
        at += gap
        kernel.schedule_at(at, a.send, "c", Address("b", "s"), b"x" * size)
    kernel.run()

    jitter = RngRegistry(seed).fork("wlan").stream("wlan.jitter")
    expected, free, at = [], 0.0, 0.0
    for gap, size in offered:
        at += gap
        airtime = config.airtime(size + LINK_HEADER_BYTES)
        if jitter_s > 0.0:
            airtime += jitter.uniform(0.0, jitter_s)
        free = max(at, free) + airtime
        expected.append(free + config.propagation_delay_s)
    assert got == expected


class TestInterference:
    def test_window_drops_frames_then_heals(self):
        kernel = SimKernel()
        wlan = WlanMedium(
            kernel,
            config=WlanConfig(jitter_s=0.0, propagation_delay_s=0.0),
            rng=RngRegistry(0).fork("wlan"),
        )
        wlan.schedule_interference(start=1.0, duration=1.0, loss_rate=1.0)
        a = wlan.attach("a")
        b = wlan.attach("b")
        got = []
        b.bind("s", lambda src, data: got.append(kernel.now))

        def send():
            a.send("c", Address("b", "s"), b"x")

        for t in (0.5, 1.5, 2.5):  # before, during, after the window
            kernel.schedule_at(t, send)
        kernel.run()
        assert len(got) == 2
        assert wlan.frames_lost == 1

    def test_worst_active_window_wins(self):
        kernel = SimKernel()
        wlan = WlanMedium(kernel, config=WlanConfig(jitter_s=0.0))
        wlan.schedule_interference(0.0, 10.0, 0.2)
        wlan.schedule_interference(5.0, 2.0, 0.9)
        assert wlan._loss_rate_at(1.0) == 0.2
        assert wlan._loss_rate_at(6.0) == 0.9
        assert wlan._loss_rate_at(12.0) == 0.0

    def test_invalid_window_rejected(self):
        kernel = SimKernel()
        wlan = WlanMedium(kernel)
        with pytest.raises(ConfigurationError):
            wlan.schedule_interference(0.0, 0.0, 0.5)
        with pytest.raises(ConfigurationError):
            wlan.schedule_interference(0.0, 1.0, 1.5)

    def test_qos1_flow_survives_interference(self):
        """At-least-once delivery rides out a lossy window end to end."""
        from repro.mqtt.broker import Broker
        from repro.mqtt.client import MqttClient
        from repro.runtime.sim import SimRuntime

        runtime = SimRuntime(seed=3)
        broker = Broker(runtime.add_node("hub"))
        pub = MqttClient(
            runtime.add_node("p"), broker.address, client_id="p",
            retry_interval_s=0.5,
        )
        sub = MqttClient(runtime.add_node("s"), broker.address, client_id="s")
        got = []
        pub.connect()
        sub.connect()
        sub.subscribe("t", lambda _t, payload, _pkt: got.append(payload), qos=1)
        runtime.run(until=1.0)
        runtime.wlan.schedule_interference(start=1.0, duration=2.0, loss_rate=1.0)
        pub.publish("t", "precious", qos=1)
        runtime.run(until=2.5)
        assert got == []  # still jammed
        runtime.run(until=10.0)
        assert "precious" in got  # retransmission delivered after the window
