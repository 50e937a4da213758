"""The profiler's busy total against a naive per-grant overlap.

A :class:`BusyIntegrator` is read at nondecreasing instants and keeps only
the grants not yet elapsed at its last read. Fed the grants of a k-server
resource — a CPU, where a grant starts when a server takes the job, or
the channel, where a grant may be queued to start in the future — the
difference of two consecutive readings must equal the window's overlap
with every grant summed one by one, stay within ``servers`` times the
window, and a CPU must hold at most ``servers`` grants after a read.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.prof import BusyIntegrator

steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.5]),  # advance of now
        st.sampled_from(["read", "grant"]),
        st.floats(min_value=0.0, max_value=2.0),  # duration
    ),
    max_size=60,
)


def _overlap(grants: list[tuple[float, float]], a: float, b: float) -> float:
    busy = 0.0
    for start, duration in grants:
        busy += max(0.0, min(start + duration, b) - max(start, a))
    return busy


@given(steps=steps, servers=st.integers(1, 3), queued=st.booleans())
def test_each_window_equals_the_per_grant_overlap(steps, servers, queued):
    """``queued=False`` is a CPU: a job finding no free server is dropped,
    so every grant starts now. ``queued=True`` is the channel: a grant
    starts when a server frees, possibly after now."""
    integrator = BusyIntegrator()
    grants: list[tuple[float, float]] = []
    free_at = [0.0] * servers
    now = last = reading = 0.0
    for advance, action, duration in steps:
        now += advance
        if action == "grant":
            server = min(range(servers), key=free_at.__getitem__)
            if not queued and free_at[server] > now:
                continue
            start = max(now, free_at[server])
            free_at[server] = start + duration
            grants.append((start, duration))
            integrator.pending.append((start, duration))
            continue
        previous, reading = reading, integrator.busy_until(now)
        busy = reading - previous
        assert abs(busy - _overlap(grants, last, now)) <= 1e-9
        assert busy <= servers * (now - last) + 1e-9
        if not queued:
            assert len(integrator._held) <= servers
        last = now
    assert abs(integrator.busy_until(now + 10.0) - _overlap(grants, 0.0, now + 10.0)) <= 1e-9
