"""SLO-on overhead smoke: the engine must ride the hot path cheaply.

The engine is tap-driven and sketch-backed (fixed memory, O(1) per
span), so an SLO-on run should cost at most a small multiple of an
observe-only run. The band is deliberately generous — this is a smoke
test against pathological regressions (e.g. an accidental O(n) scan per
span), not a micro-benchmark; wall-clock on shared CI is noisy.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.bench.scenarios import FIG5, build_fig5_testbed
from repro.scenario import run

DURATION_S = 8.0
#: The zero-cost build these bands were set on.
FIG5_ZERO_COST = dataclasses.replace(FIG5, build=build_fig5_testbed)

#: SLO-on may cost at most this multiple of observe-only (plus a fixed
#: floor so sub-100ms baselines don't amplify scheduler noise).
MAX_RATIO = 4.0
FLOOR_S = 0.25


def _timed(slo: bool) -> float:
    start = time.perf_counter()
    run(FIG5_ZERO_COST, duration_s=DURATION_S, observe=True, slo=slo)
    return time.perf_counter() - start


@pytest.mark.slow
def test_slo_overhead_within_band():
    _timed(slo=False)  # warm imports/caches out of the measurement
    base = _timed(slo=False)
    with_slo = _timed(slo=True)
    budget = MAX_RATIO * max(base, FLOOR_S)
    assert with_slo <= budget, (
        f"SLO-on run took {with_slo:.3f}s vs observe-only {base:.3f}s "
        f"(budget {budget:.3f}s) — the engine is too heavy for the hot path"
    )


@pytest.mark.slow
def test_slo_state_stays_bounded():
    """Run-length-independent memory: pending/root bookkeeping is purged."""
    engine = run(FIG5_ZERO_COST, observe=True, slo=True).runtime.slo
    assert engine is not None
    assert len(engine._pending) == 0 or len(engine._pending) < 100
    # Root starts are purged past the horizon, not accumulated all run.
    horizon_traces = len(engine._roots)
    assert horizon_traces < 2000
    for window in engine.windows.values():
        assert len(window) <= window.slices + 1
