import pytest

from repro.errors import ClockError
from repro.sim.kernel import CompositeMonitor, SimKernel


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


def test_reset():
    k = SimKernel()
    k.schedule(1.0, lambda: None)
    k.run()
    k.reset()
    assert k.now == 0.0
    assert k.events_processed == 0
    assert k.pending == 0


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
# Monitor dispatch: one run loop, hooks selected by what the monitor declares
# ----------------------------------------------------------------------


class _Recorder:
    """Monitor that logs ``(name, hook, callback argument)`` per call."""

    def __init__(self, name, log, **wants):
        self.name = name
        self.log = log
        for hook, wanted in wants.items():
            setattr(self, f"wants_{hook}", wanted)

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


def test_composite_brackets_nest_in_attachment_order():
    k = SimKernel()
    log = []
    k.monitor = CompositeMonitor((_Recorder("a", log), _Recorder("b", log)))
    k.schedule(1.0, _fire, "x", log)
    k.run()
    assert [(name, hook) for name, hook, _ in log] == [
        ("a", "scheduled"),
        ("b", "scheduled"),
        ("a", "begin"),
        ("b", "begin"),
        ("callback", "fire"),
        ("b", "end"),
        ("a", "end"),
    ]


@pytest.mark.parametrize("composite", [False, True])
@pytest.mark.parametrize("unwanted", ["scheduled", "begin", "end"])
def test_unwanted_hook_is_never_called(unwanted, composite):
    k = SimKernel()
    log = []
    quiet = _Recorder("quiet", log, **{unwanted: False})
    k.monitor = (
        CompositeMonitor((quiet, _Recorder("loud", log))) if composite else quiet
    )
    k.schedule(1.0, _fire, "x", log)
    k.run()
    hooks = {"scheduled", "begin", "end"}
    assert {hook for name, hook, _ in log if name == "quiet"} == hooks - {unwanted}
    if composite:
        assert {hook for name, hook, _ in log if name == "loud"} == hooks


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
        k.monitor = CompositeMonitor((_Recorder("a", log), _Recorder("b", log)))
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
