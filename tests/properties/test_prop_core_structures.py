"""Property-based tests for core data structures."""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import LatencyRecorder, RunningStats


finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@given(values=st.lists(finite_floats, min_size=1, max_size=200))
def test_running_stats_matches_batch(values):
    s = RunningStats()
    for v in values:
        s.add(v)
    n = len(values)
    mean = sum(values) / n
    assert s.count == n
    assert abs(s.mean - mean) <= 1e-6 * max(1.0, abs(mean))
    assert s.minimum == min(values)
    assert s.maximum == max(values)
    variance = sum((v - mean) ** 2 for v in values) / n
    assert abs(s.variance - variance) <= 1e-4 * max(1.0, variance)


@given(values=st.lists(finite_floats, min_size=1, max_size=100))
def test_latency_percentiles_are_monotone_and_bounded(values):
    rec = LatencyRecorder()
    rec.extend(values)
    p25, p50, p95 = rec.percentile(25), rec.percentile(50), rec.percentile(95)
    assert rec.minimum <= p25 <= p50 <= p95 <= rec.maximum


def _reference_percentile(samples: list[float], q: float) -> float:
    """``util.stats.percentile`` as it was before the sort-once helper."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low, high = int(math.floor(rank)), int(math.ceil(rank))
    if low == high:
        return ordered[low]
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


@given(
    values=st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=200),
    qs=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=5),
)
def test_sort_once_percentiles_are_bit_identical_to_one_at_a_time(values, qs):
    """Golden ``obs.metrics`` records and ``/metrics.json`` depend on it:
    the multi-quantile path returns the very floats the three separate
    sorts did, infinities and signed zeros included, and a registry
    histogram below its cap answers exactly as an unbounded recorder."""
    from repro.obs.metrics import MetricsRegistry
    from repro.util.stats import percentile, percentiles

    def bits(x: float) -> bytes:
        return struct.pack("<d", x)

    got = percentiles(values, tuple(qs))
    assert [bits(x) for x in got] == [
        bits(_reference_percentile(values, q)) for q in qs
    ]
    assert [bits(percentile(values, q)) for q in qs] == [bits(x) for x in got]
    histogram = MetricsRegistry().histogram("h")
    histogram.extend(values)
    rec = LatencyRecorder()
    rec.extend(values)
    assert [bits(x) for x in histogram.percentiles(*qs)] == [
        bits(rec.percentile(q)) for q in qs
    ]
    summary = rec.summary()
    assert [bits(summary[k]) for k in ("p50", "p95", "p99")] == [
        bits(rec.percentile(q)) for q in (50, 95, 99)
    ]
