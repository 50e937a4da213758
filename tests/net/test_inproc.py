"""The in-process medium: one global FIFO of frames, drained at most
:data:`~repro.net.inproc.BURST_FRAMES` per loop turn, a fixed latency per
frame when one is set, and partitions decided when a frame is transmitted."""

import asyncio
import gc
import warnings

from repro.net.address import Address
from repro.net.inproc import BURST_FRAMES
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


# ----------------------------------------------------------------------
# The frame run-queue: one FIFO, one pending drain, a bounded burst
# ----------------------------------------------------------------------


def test_global_fifo_across_interleaved_senders():
    with AsyncioRuntime() as runtime:
        nodes = [runtime.add_node(name) for name in "abc"]
        got = []
        for node in nodes:
            node.bind("svc", lambda src, data, name=node.name: got.append((name, data)))
        sent = []
        for i in range(30):  # a->b, b->c, c->a, a->b, ...
            source, destination = nodes[i % 3], nodes[(i + 1) % 3]
            source.send("cli", Address(destination.name, "svc"), bytes([i]))
            sent.append((destination.name, bytes([i])))
        runtime.run_for(0.05)
        assert got == sent


def test_no_receiver_runs_before_transmit_returns():
    with AsyncioRuntime() as runtime:
        a = runtime.add_node("a")
        b = runtime.add_node("b")
        log = []

        def echo_twice(src, data):
            log.append(("b got", data))
            if data == b"ping":  # transmitting from inside a drain queues too
                b.send("svc", src, b"pong-1")
                b.send("svc", src, b"pong-2")
                log.append("b returned")

        b.bind("svc", echo_twice)
        a.bind("cli", lambda src, data: log.append(("a got", data)))
        a.send("cli", Address("b", "svc"), b"ping")
        log.append("a returned")
        runtime.run_for(0.05)
        assert log == [
            "a returned", ("b got", b"ping"), "b returned",
            ("a got", b"pong-1"), ("a got", b"pong-2"),
        ]


def test_ping_pong_that_never_idles_yields_every_burst():
    with AsyncioRuntime() as runtime:
        a = runtime.add_node("a")
        b = runtime.add_node("b")
        network = runtime.network
        a.bind("svc", lambda src, data: a.send("svc", src, data))
        b.bind("svc", lambda src, data: b.send("svc", src, data))
        fired = []
        due = runtime.call_later(0.01, lambda: fired.append(True)).when()
        turns = []  # at each turn of the bystander: (loop time, frames so far, fired?)

        async def bystander():
            while runtime.now < 0.05:
                turns.append((runtime.loop.time(), network.frames_transmitted, bool(fired)))
                await asyncio.sleep(0)

        a.send("svc", Address("b", "svc"), b"ball")
        asyncio.set_event_loop(runtime.loop)
        try:
            runtime.loop.run_until_complete(bystander())
        finally:
            asyncio.set_event_loop(None)
        assert network.frames_transmitted > 10 * BURST_FRAMES  # the ball never stopped
        frames = [sent for _time, sent, _fired in turns]
        # Every delivery transmits once, and a turn of the loop is one drain.
        assert max(after - before for before, after in zip(frames, frames[1:])) <= BURST_FRAMES
        # The timer is not starved, counted in turns rather than seconds so a
        # loaded host cannot fail it: it runs in the loop turn after the one
        # that first finds it due, so that turn's bystander sees it fired.
        first_due = next(i for i, (time, _sent, _fired) in enumerate(turns) if time >= due)
        first_fired = next(i for i, (_time, _sent, done) in enumerate(turns) if done)
        assert first_fired - first_due <= 2
        assert frames[-1] > frames[first_fired]  # and the ball kept moving after it


def test_raising_receiver_reaches_the_loop_handler_and_the_queue_moves_on():
    with AsyncioRuntime() as runtime:
        a = runtime.add_node("a")
        b = runtime.add_node("b")
        got, reported = [], []

        def receive(src, data):
            if data == b"bad":
                raise RuntimeError("receiver broke")
            got.append(data)

        b.bind("svc", receive)
        runtime.loop.set_exception_handler(lambda loop, context: reported.append(context))
        for data in (b"1", b"bad", b"2", b"3"):
            a.send("cli", Address("b", "svc"), data)
        runtime.run_for(0.05)
        assert got == [b"1", b"2", b"3"]
        assert [str(context["exception"]) for context in reported] == ["receiver broke"]
        a.send("cli", Address("b", "svc"), b"4")  # and the drain re-arms afterwards
        runtime.run_for(0.02)
        assert got[-1] == b"4"


def test_detach_with_frames_queued_drops_them_silently():
    with AsyncioRuntime() as runtime:
        a = runtime.add_node("a")
        b = runtime.add_node("b")
        c = runtime.add_node("c")
        got = []
        b.bind("svc", lambda src, data: got.append(("b", data)))
        c.bind("svc", lambda src, data: got.append(("c", data)))
        a.send("cli", Address("b", "svc"), b"1")
        a.send("cli", Address("c", "svc"), b"2")
        runtime.network.detach("b")
        runtime.run_for(0.02)
        assert got == [("c", b"2")]
        assert runtime.network.frames_transmitted == 2


def test_partition_is_decided_at_transmit_time():
    with AsyncioRuntime() as runtime:
        a = runtime.add_node("a")
        b = runtime.add_node("b")
        got = []
        b.bind("svc", lambda src, data: got.append(data))
        a.send("cli", Address("b", "svc"), b"before the cut")
        runtime.network.partition(["a"], ["b"])
        a.send("cli", Address("b", "svc"), b"across the cut")
        runtime.network.heal()
        runtime.run_for(0.02)
        assert got == [b"before the cut"]
        assert runtime.network.frames_transmitted == 2
        assert runtime.network.frames_partitioned == 1


def test_a_cut_drops_only_the_frames_that_cross_it():
    with AsyncioRuntime() as runtime:
        nodes = {name: runtime.add_node(name) for name in "abc"}
        got = []
        for name in "abc":
            nodes[name].bind("svc", lambda src, data, name=name: got.append((name, data)))
        runtime.network.partition(["a", "c"], ["b"])
        for source, destination in ("ab", "ac", "ca", "cb", "ba", "bb"):
            nodes[source].send("svc", Address(destination, "svc"), f"{source}>{destination}".encode())
        runtime.run_for(0.02)
        assert got == [("c", b"a>c"), ("a", b"c>a"), ("b", b"b>b")]
        assert runtime.network.frames_transmitted == 6
        assert runtime.network.frames_partitioned == 3


def test_latency_delays_every_frame_by_the_latency():
    with AsyncioRuntime(network_latency_s=0.02) as runtime:
        a = runtime.add_node("a")
        b = runtime.add_node("b")
        sent_at, delays = {}, []
        b.bind("svc", lambda src, data: delays.append(runtime.now - sent_at[data]))

        def send(data):
            sent_at[data] = runtime.now
            a.send("cli", Address("b", "svc"), data)

        for i in range(4):
            runtime.call_later(0.005 * i, send, bytes([i]))
        runtime.run_for(0.08)
        assert len(delays) == 4 and all(0.019 <= delay < 0.035 for delay in delays)


def test_close_with_frames_queued_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runtime = AsyncioRuntime()
        a = runtime.add_node("a")
        runtime.add_node("b").bind("svc", lambda src, data: None)
        a.send("cli", Address("b", "svc"), b"never delivered")
        runtime.close()
        del runtime, a
        gc.collect()  # a ResourceWarning would come from a finalizer
