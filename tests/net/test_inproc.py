from repro.net.address import Address
from repro.runtime.real import AsyncioRuntime


def test_delivery_preserves_order():
    with AsyncioRuntime() as runtime:
        a = runtime.add_node("a")
        b = runtime.add_node("b")
        got = []
        b.bind("svc", lambda src, data: got.append(data))
        for i in range(5):
            a.send("cli", Address("b", "svc"), bytes([i]))
        runtime.run_for(0.05)
        assert got == [bytes([i]) for i in range(5)]


def test_latency_delays_delivery():
    with AsyncioRuntime(network_latency_s=0.03) as runtime:
        a = runtime.add_node("a")
        b = runtime.add_node("b")
        stamps = []
        b.bind("svc", lambda src, data: stamps.append(runtime.now))
        start = runtime.now
        a.send("cli", Address("b", "svc"), b"x")
        runtime.run_for(0.1)
        assert stamps and stamps[0] - start >= 0.025


def test_unknown_station_dropped():
    with AsyncioRuntime() as runtime:
        a = runtime.add_node("a")
        a.send("cli", Address("ghost", "svc"), b"x")
        runtime.run_for(0.02)  # no exception


def test_frames_counted():
    with AsyncioRuntime() as runtime:
        assert runtime.network.frames_transmitted == 0
