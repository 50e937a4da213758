"""The kernel's heap against its ordering contract (``repro.sim.events``):
time order, FIFO ties, seeded tie perturbation, epilogues after every
normal event of their instant, and lazy cancellation."""

import pytest

from repro.sim.kernel import SimKernel


def test_pop_in_time_order():
    k = SimKernel()
    fired = []
    k.schedule_at(3.0, fired.append, "c")
    k.schedule_at(1.0, fired.append, "a")
    k.schedule_at(2.0, fired.append, "b")
    k.run()
    assert fired == ["a", "b", "c"]


def test_fifo_tie_break_at_same_time():
    k = SimKernel()
    order = []
    for i in range(5):
        k.schedule_at(1.0, order.append, i)
    k.run()
    assert order == [0, 1, 2, 3, 4]


def test_seq_is_monotonic_across_schedulers():
    k = SimKernel()
    handles = [
        k.schedule(1.0, print),
        k.schedule_at(0.5, print),
        k.call_soon(print),
        k.schedule_epilogue(print),
    ]
    assert [h.seq for h in handles] == [0, 1, 2, 3]
    assert [h.epilogue_priority for h in handles] == [None, None, None, 0]


def test_perturbation_permutes_ties_reproducibly_and_only_ties():
    def order(seed):
        k = SimKernel()
        k.perturb_ties(seed)
        fired = []
        for i in range(8):
            k.schedule_at(1.0, fired.append, i)
        k.schedule_at(0.5, fired.append, "early")
        k.schedule_at(2.0, fired.append, "late")
        k.run()
        return fired

    fifo = order(None)
    assert fifo == ["early", *range(8), "late"]
    permuted = order(7)
    assert permuted == order(7)
    assert permuted != fifo
    assert permuted[0] == "early" and permuted[-1] == "late"
    assert sorted(permuted[1:-1]) == list(range(8))


def test_perturbation_applies_from_install_on():
    k = SimKernel()
    fired = []
    for i in range(4):
        k.schedule_at(1.0, fired.append, i)
    assert not k.perturbed
    k.perturb_ties(3)
    assert k.perturbed
    k.perturb_ties(None)
    assert not k.perturbed
    k.run()
    assert fired == [0, 1, 2, 3]


def test_epilogues_follow_every_normal_event_in_priority_order():
    for seed in (None, 1, 2, 3):
        k = SimKernel()
        k.perturb_ties(seed)
        fired = []
        k.schedule_epilogue(fired.append, "p1", delay=1.0, priority=1)
        k.schedule_epilogue(fired.append, "p0-a", delay=1.0)
        for i in range(4):
            k.schedule_at(1.0, fired.append, i)
        k.schedule_epilogue(fired.append, "p0-b", delay=1.0)
        # A normal event scheduled during the instant, before any epilogue
        # runs, still precedes them all.
        k.schedule_at(1.0, k.call_soon, fired.append, "soon")
        k.run()
        assert set(fired[:-3]) == {0, 1, 2, 3, "soon"}, seed
        assert fired[-3:] == ["p0-a", "p0-b", "p1"], seed


def test_negative_epilogue_priority_rejected():
    with pytest.raises(ValueError):
        SimKernel().schedule_epilogue(print, priority=-1)


def test_cancel_skips_event():
    k = SimKernel()
    fired = []
    keep = k.schedule_at(1.0, fired.append, "keep")
    drop = k.schedule_at(0.5, fired.append, "drop")
    drop.cancel()
    k.run()
    assert fired == ["keep"]
    assert keep.time == 1.0
    assert k.events_processed == 1


def test_cancel_is_idempotent():
    k = SimKernel()
    handle = k.schedule_at(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert k.step() is False


def test_stale_cancel_reaches_no_other_event():
    k = SimKernel()
    fired = []
    first = k.schedule_at(1.0, fired.append, "first")
    assert k.step()
    later = k.schedule_at(1.0, fired.append, "later")
    first.cancel()  # long after it fired
    k.run()
    assert fired == ["first", "later"]
    assert not later.cancelled


def test_cancelled_head_is_not_pending_work():
    k = SimKernel()
    head = k.schedule_at(1.0, lambda: None)
    k.schedule_at(2.0, lambda: None)
    head.cancel()
    assert k.pending == 2  # husks stay until popped
    k.run_until_idle()
    assert k.pending == 0
    assert k.now == 2.0
