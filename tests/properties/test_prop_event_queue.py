"""Property test: the event queue against a ``(time, seq)`` model.

A handle is a reference to exactly one event for as long as anyone keeps
it: cancelling through a kept handle before its event fires removes that
event, and cancelling long after it fired must not affect any other
event. This drives random schedule/cancel/fire interleavings against a
pure-Python model and requires exact agreement.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue


def _fire_one(queue: EventQueue, fired: list[int]) -> bool:
    """Pop and execute one event, like the kernel run loop."""
    handle = queue.pop()
    if handle is None:
        return False
    handle.callback(*handle.args)
    return True


# One operation of the interleaving:
#   ("schedule", time_bump, keep_ref) — push a new event
#   ("cancel", index)                 — cancel through a kept handle
#                                       (possibly long after it fired)
#   ("fire",)                         — kernel step: pop + execute
_ops = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.integers(min_value=0, max_value=5),
        st.booleans(),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
    st.tuples(st.just("fire")),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_ops, max_size=80))
def test_interleavings_match_time_seq_model(ops):
    """Random schedule/cancel/fire interleavings: the queue fires exactly
    the events a pure model says it should, in exactly the model's order."""
    queue = EventQueue()
    fired: list[int] = []
    # Model rows: [event_id, time, seq, cancelled, fired, kept_handle|None]
    model: list[list] = []
    kept: list[int] = []  # indices of model rows whose handle we retained
    now = 0.0
    next_id = 0

    for op in ops:
        if op[0] == "schedule":
            _, bump, keep = op
            time = now + bump
            event_id = next_id
            next_id += 1
            handle = queue.push(time, fired.append, (event_id,))
            model.append([event_id, time, handle.seq, False, False, None])
            if keep:
                model[-1][5] = handle
                kept.append(len(model) - 1)
            del handle
        elif op[0] == "cancel":
            if not kept:
                continue
            row = model[kept[op[1] % len(kept)]]
            # Cancel through the kept handle — even if the event already
            # fired. The model only honours pre-fire cancellation; the
            # real queue must agree, i.e. a stale cancel must never leak
            # into another event.
            row[5].cancel()
            if not row[4]:
                row[3] = True
        else:  # fire
            live = [r for r in model if not r[3] and not r[4]]
            if not live:
                assert not _fire_one(queue, fired)
                continue
            expected = min(live, key=lambda r: (r[1], r[2]))
            assert _fire_one(queue, fired)
            assert fired[-1] == expected[0]
            expected[4] = True
            now = expected[1]

    # Drain: every remaining live event fires in (time, seq) order.
    remaining = sorted(
        (r for r in model if not r[3] and not r[4]),
        key=lambda r: (r[1], r[2]),
    )
    before = len(fired)
    while _fire_one(queue, fired):
        pass
    assert fired[before:] == [r[0] for r in remaining]
    # Nothing fired twice, nothing cancelled-before-fire fired at all.
    assert len(fired) == len(set(fired))
    cancelled_ids = {r[0] for r in model if r[3]}
    assert not cancelled_ids.intersection(fired)

