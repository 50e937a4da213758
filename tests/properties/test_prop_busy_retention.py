"""Model-based test of busy-timeline retention.

A :class:`BusyIntegrator` that retires intervals behind a moving horizon
is fed the same grant stream as a never-retiring reference. Every window
the retained data may still answer — ending at or after the horizon and
starting at or after it or at a registered origin — must return the
reference's float exactly (``==``, not ``approx``: profile digests and
BENCH ``sim`` blocks are byte-exact). Every other window must raise
``ValueError`` rather than return a partial sum, and ``total`` and
``grants`` count every grant ever made.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prof import BusyIntegrator

#: (start increment, duration): equal starts, zero, tiny, short and long
#: grants — a long one spans many horizons and overlaps the grants after
#: it, as on a k-server CPU or a queued airtime channel.
grants = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    st.one_of(
        st.just(0.0), st.just(1e-12), st.floats(0.0, 1.0), st.floats(5.0, 30.0)
    ),
)
#: After a grant: optionally retire at (its start - lookback), optionally
#: register an origin at (its start + offset) — behind the horizon or not.
steps = st.lists(
    st.tuples(
        grants,
        st.one_of(st.none(), st.floats(0.0, 10.0)),
        st.one_of(st.none(), st.floats(-10.0, 5.0)),
    ),
    min_size=1,
    max_size=30,
)


def _check(subject, reference, origins, horizon, points):
    assert subject.total == reference.total
    assert subject.grants == reference.grants
    for a in points:
        for b in points:
            if b <= a or (b >= horizon and (a >= horizon or a in origins)):
                assert subject.busy_between(a, b) == reference.busy_between(a, b), (a, b)
            else:
                with pytest.raises(ValueError):
                    subject.busy_between(a, b)


@settings(max_examples=300, deadline=None)
@given(steps=steps, data=st.data())
def test_retained_windows_equal_a_never_retiring_integrator(steps, data):
    subject, reference = BusyIntegrator(), BusyIntegrator()
    origins = {0.0}
    horizon = float("-inf")
    start = 0.0
    bounds: list[float] = []
    for (increment, duration), lookback, offset in steps:
        start += increment
        subject.add(start, duration)
        reference.add(start, duration)
        bounds += [start, start + duration]
        if offset is not None:
            origin = start + offset
            if origin < horizon:
                with pytest.raises(ValueError):
                    subject.register_origin(origin)
            else:
                subject.register_origin(origin)
                origins.add(origin)
        if lookback is not None:
            subject.retire(start - lookback)
            horizon = max(horizon, start - lookback)
            extra = data.draw(st.lists(st.floats(-1.0, start + 31.0), max_size=3))
            points = sorted({*origins, horizon, *bounds[-6:], *extra} - {float("-inf")})
            _check(subject, reference, origins, horizon, points)
    assert len(subject._starts) <= len(reference._starts) == reference.grants
    points = sorted({*origins, horizon, *bounds} - {float("-inf")})
    _check(subject, reference, origins, horizon, points)
