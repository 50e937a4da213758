import functools

import pytest

from repro.errors import ClockError
from repro.sim.kernel import SimKernel, handler_key


def test_run_advances_clock_to_last_event():
    k = SimKernel()
    fired = []
    k.schedule(5.0, fired.append, "a")
    k.schedule(2.0, fired.append, "b")
    k.run()
    assert fired == ["b", "a"]
    assert k.now == 5.0


def test_run_until_advances_clock_even_without_events():
    k = SimKernel()
    k.run(until=10.0)
    assert k.now == 10.0


def test_run_until_does_not_execute_later_events():
    k = SimKernel()
    fired = []
    k.schedule(5.0, fired.append, "late")
    k.run(until=3.0)
    assert fired == []
    assert k.now == 3.0
    k.run(until=6.0)
    assert fired == ["late"]


def test_schedule_in_past_rejected():
    k = SimKernel()
    with pytest.raises(ClockError):
        k.schedule(-1.0, lambda: None)
    k.run(until=5.0)
    with pytest.raises(ClockError):
        k.schedule_at(4.0, lambda: None)


@pytest.mark.parametrize(
    "schedule",
    [
        lambda k: k.schedule(float("nan"), print),
        lambda k: k.schedule_at(float("nan"), print),
        lambda k: k.schedule_epilogue(print, delay=float("nan")),
    ],
    ids=["schedule", "schedule_at", "schedule_epilogue"],
)
def test_nan_time_rejected(schedule):
    """A NaN passes ``delay < 0`` and ``time < now`` alike; it must not
    reach the heap, where it would fire first and leave ``now`` NaN."""
    k = SimKernel()
    fired = []
    k.schedule(1.0, fired.append, "a")
    k.run(until=0.5)
    with pytest.raises(ClockError):
        schedule(k)
    assert k.pending == 1
    # The clock stays a number, so ``call_soon`` (which takes no time of
    # its own) schedules at a real instant.
    k.call_soon(fired.append, "soon")
    k.run()
    assert fired == ["soon", "a"]
    assert k.now == 1.0


def test_call_soon_runs_at_current_time_in_order():
    k = SimKernel()
    order = []
    k.schedule(1.0, lambda: (order.append("t1"), k.call_soon(order.append, "soon")))
    k.schedule(1.0, order.append, "t1b")
    k.run()
    assert order == ["t1", "t1b", "soon"]
    assert k.now == 1.0


def test_step_returns_false_when_drained():
    k = SimKernel()
    k.schedule(1.0, lambda: None)
    assert k.step() is True
    assert k.step() is False


def test_events_scheduled_during_run_execute():
    k = SimKernel()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            k.schedule(1.0, chain, n + 1)

    k.schedule(0.0, chain, 0)
    k.run()
    assert fired == [0, 1, 2, 3]
    assert k.now == 3.0


def test_max_events_guard():
    k = SimKernel()

    def forever():
        k.schedule(0.0, forever)

    k.schedule(0.0, forever)
    with pytest.raises(ClockError):
        k.run_until_idle(max_events=100)


def test_reentrant_run_rejected():
    k = SimKernel()

    def nested():
        k.run()

    k.schedule(0.0, nested)
    with pytest.raises(ClockError):
        k.run()


def test_events_processed_counter():
    k = SimKernel()
    for i in range(4):
        k.schedule(float(i), lambda: None)
    k.run()
    assert k.events_processed == 4


# ----------------------------------------------------------------------
# Monitor dispatch: one run loop, one monitor
# ----------------------------------------------------------------------


class _Recorder:
    """Monitor that logs ``(name, hook, callback argument)`` per call."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def event_scheduled(self, handle, parent):
        self.log.append((self.name, "scheduled", handle.args[0]))

    def event_begin(self, handle):
        self.log.append((self.name, "begin", handle.args[0]))

    def event_end(self, handle):
        self.log.append((self.name, "end", handle.args[0]))


def _fire(tag, log):
    log.append(("callback", "fire", tag))


def test_hooks_bracket_every_event():
    k = SimKernel()
    log = []
    k.monitor = _Recorder("m", log)
    k.schedule(1.0, _fire, "x", log)
    k.schedule(2.0, _fire, "y", log)
    k.run()
    assert log == [
        ("m", "scheduled", "x"),
        ("m", "scheduled", "y"),
        ("m", "begin", "x"),
        ("callback", "fire", "x"),
        ("m", "end", "x"),
        ("m", "begin", "y"),
        ("callback", "fire", "y"),
        ("m", "end", "y"),
    ]


def test_raising_callback_still_ends_and_kernel_runs_again():
    k = SimKernel()
    log = []
    k.monitor = _Recorder("m", log)

    def boom(tag):
        raise RuntimeError(tag)

    k.schedule(1.0, boom, "bad")
    k.schedule(2.0, _fire, "after", log)
    with pytest.raises(RuntimeError, match="bad"):
        k.run()
    assert log[-1] == ("m", "end", "bad")
    assert k.current_event is None
    k.run()
    assert ("callback", "fire", "after") in log
    assert k.now == 2.0


@pytest.mark.parametrize("monitored", [False, True])
def test_current_event_is_the_running_handle(monitored):
    k = SimKernel()
    if monitored:
        k.monitor = _Recorder("m", [])
    seen = []
    handle = k.schedule(1.0, lambda _tag: seen.append(k.current_event), "x")
    assert k.current_event is None
    k.run()
    assert seen == [handle]
    assert k.current_event is None


def test_step_fires_the_same_hooks_as_run():
    def hooks_of(drive):
        k = SimKernel()
        log = []
        k.monitor = _Recorder("a", log)
        k.schedule(1.0, _fire, "x", log)
        k.schedule(1.0, _fire, "y", log)
        drive(k)
        return [(name, hook) for name, hook, _ in log]

    def by_steps(k):
        while k.step():
            pass

    assert hooks_of(by_steps) == hooks_of(SimKernel.run)


def test_step_from_a_callback_is_rejected():
    k = SimKernel()
    k.schedule(0.0, lambda: k.step())
    k.schedule(0.0, lambda: None)
    with pytest.raises(ClockError):
        k.run()


# ----------------------------------------------------------------------
# Handler tally: counted inline, keyed so that it stays bounded
# ----------------------------------------------------------------------


class _Ticker:
    def tick(self):
        pass


def test_tally_counts_handlers_by_function_or_name():
    k = SimKernel()
    k.tally = {}
    a, b = _Ticker(), _Ticker()
    for i in range(3):  # three closures, one name
        k.schedule(1.0, lambda: None)
    k.schedule(1.0, a.tick)
    k.schedule(1.0, b.tick)
    k.schedule(1.0, functools.partial(_fire, "p", []))
    k.schedule(1.0, [].append, 1)
    k.run()
    lam = "test_tally_counts_handlers_by_function_or_name.<locals>.<lambda>"
    assert k.tally == {lam: 3, _Ticker.tick: 2, "partial": 1, "list.append": 1}
    assert all(handler_key(cb) in k.tally for cb in (a.tick, lambda: None, [].append))


def test_tally_is_read_once_per_run_and_off_by_default():
    k = SimKernel()
    assert k.tally is None
    seen = {}
    k.schedule(1.0, lambda: setattr(k, "tally", seen))
    k.schedule(2.0, lambda: None)
    k.run()
    assert seen == {}  # installed mid-run: the next run counts
    k.schedule(1.0, lambda: None)
    k.run()
    assert sum(seen.values()) == 1 and k.events_processed == 3
