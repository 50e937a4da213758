"""Latency sketches: accuracy, exact merge, windowing."""

import pytest

from repro.obs.sketch import LatencySketch, WindowedSketch


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LatencySketch(alpha=0.0)
    with pytest.raises(ValueError):
        LatencySketch(alpha=1.0)
    with pytest.raises(ValueError):
        LatencySketch(max_buckets=1)
    with pytest.raises(ValueError):
        LatencySketch().add(-0.001)


def test_empty_sketch_quantiles_and_mean():
    sketch = LatencySketch()
    assert sketch.quantile(50) == 0.0
    assert sketch.quantile(99) == 0.0
    assert sketch.mean == 0.0
    assert len(sketch) == 0


def test_quantiles_within_relative_error():
    alpha = 0.01
    sketch = LatencySketch(alpha=alpha)
    values = sorted((1.0 + 0.37 * i) % 97.0 + 0.5 for i in range(500))
    for v in values:
        sketch.add(v)
    for q in (50, 90, 95, 99, 100):
        rank = int(q * (len(values) - 1) / 100)
        true = values[rank]
        assert abs(sketch.quantile(q) - true) <= alpha * true + 1e-12


def test_zero_values_land_in_zero_bucket():
    sketch = LatencySketch()
    for _ in range(10):
        sketch.add(0.0)
    sketch.add(5.0)
    assert sketch.zero_count == 10
    assert sketch.quantile(50) == 0.0
    assert sketch.quantile(100) == pytest.approx(5.0, rel=0.01)
    assert sketch.minimum == 0.0
    assert sketch.maximum == 5.0


def test_merge_is_exact_below_bucket_cap():
    left, right, both = LatencySketch(), LatencySketch(), LatencySketch()
    a = [0.001 * (i + 1) for i in range(200)]
    b = [0.5 + 0.01 * i for i in range(200)]
    for v in a:
        left.add(v)
        both.add(v)
    for v in b:
        right.add(v)
        both.add(v)
    left.merge(right)
    assert left.buckets == both.buckets
    assert left.count == both.count == 400
    assert left.total == pytest.approx(both.total)
    assert left.minimum == both.minimum
    assert left.maximum == both.maximum
    for q in (50, 95, 99):
        assert left.quantile(q) == both.quantile(q)


def test_merge_rejects_alpha_mismatch():
    with pytest.raises(ValueError, match="different accuracy"):
        LatencySketch(alpha=0.01).merge(LatencySketch(alpha=0.02))


def test_bucket_cap_collapses_the_low_tail():
    sketch = LatencySketch(alpha=0.01, max_buckets=8)
    # Values spanning many decades force far more than 8 log-buckets.
    for exponent in range(-6, 6):
        for step in range(5):
            sketch.add(10.0**exponent * (1.0 + 0.1 * step))
    assert len(sketch.buckets) <= 8
    assert sketch.count == 60
    # The collapse only coarsens the *low* tail; the max keeps resolution.
    assert sketch.quantile(100) == pytest.approx(sketch.maximum, rel=0.02)


def test_windowed_sketch_evicts_old_slices():
    window = WindowedSketch(slice_s=1.0, slices=3)
    window.observe(0.5, 10.0)
    window.observe(1.5, 20.0)
    window.observe(2.5, 30.0)
    assert window.query(2.9).count == 3
    # At t=3.9 the slice holding t=0.5 is beyond the 3-slice horizon.
    assert window.query(3.9).count == 2
    # One slice later t=1.5 ages out too.
    assert window.query(4.1).count == 1
    assert len(window) <= 3
    # Far future: everything aged out.
    assert window.query(100.0).count == 0


def test_windowed_sketch_bounds_memory_on_observe():
    window = WindowedSketch(slice_s=1.0, slices=4)
    for i in range(100):
        window.observe(float(i), 1.0)
    assert len(window) <= 5  # current slice + horizon


def test_windowed_sketch_query_merges_live_slices():
    window = WindowedSketch(slice_s=2.0, slices=2)
    for t, v in ((0.1, 1.0), (0.2, 2.0), (2.1, 3.0)):
        window.observe(t, v)
    merged = window.query(2.5)
    assert merged.count == 3
    assert merged.maximum == 3.0
    assert merged.minimum == 1.0


def test_windowed_sketch_validates_parameters():
    with pytest.raises(ValueError):
        WindowedSketch(slice_s=0.0)
    with pytest.raises(ValueError):
        WindowedSketch(slices=0)
