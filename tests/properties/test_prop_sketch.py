"""Property tests for the SLO quantile sketches.

Hypothesis pins the two guarantees the online SLO engine leans on:

* **rank-error bound** — for any observation list, every reported
  quantile is within relative error ``alpha`` of the true sample at
  that rank (DDSketch's defining property);
* **mergeability** — splitting a sample set arbitrarily, sketching the
  halves and merging gives *exactly* the sketch of the whole (bucket
  counts are integers, so below the collapse cap nothing is lost).
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import LatencySketch

latencies = st.lists(
    st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=200,
)


@given(values=latencies, q=st.integers(min_value=0, max_value=100))
@settings(max_examples=150)
def test_quantile_rank_error_bound(values, q):
    alpha = 0.01
    sketch = LatencySketch(alpha=alpha)
    for v in values:
        sketch.add(v)
    ordered = sorted(values)
    rank = int(q * (len(ordered) - 1) / 100)
    true = ordered[rank]
    estimate = sketch.quantile(q)
    if true <= 1e-12:
        assert estimate == 0.0
    else:
        assert abs(estimate - true) <= alpha * true + 1e-9


@given(values=latencies, split=st.integers(min_value=0, max_value=200))
@settings(max_examples=150)
def test_merge_equals_sketch_of_concatenation(values, split):
    split = min(split, len(values))
    left, right, whole = LatencySketch(), LatencySketch(), LatencySketch()
    for v in values[:split]:
        left.add(v)
    for v in values[split:]:
        right.add(v)
    for v in values:
        whole.add(v)
    left.merge(right)
    assert left.buckets == whole.buckets
    assert left.zero_count == whole.zero_count
    assert left.count == whole.count
    assert left.minimum == whole.minimum
    assert left.maximum == whole.maximum
    assert math.isclose(left.total, whole.total, rel_tol=1e-9, abs_tol=1e-9)
