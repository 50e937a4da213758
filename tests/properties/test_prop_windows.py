"""Property tests for the bounded windows and the bounded sample store.

Every sliding window in the flow-analysis layer is a
``collections.deque(maxlen=window)``; each user must keep exactly the last
``window`` items, which is checked here against a ``values[-window:]``
reference. The sample store (``LatencyRecorder``) must answer exactly as
an unbounded one below its cap and decimate deterministically above it.
"""

import math
import struct
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.flow import FlowRecord
from repro.core.middleware import IFoTCluster
from repro.core.operators import DedupOperator
from repro.errors import ConfigurationError, ModelError, RecipeError
from repro.ml.anomaly import LofLite
from repro.ml.evaluation import PrequentialAccuracy
from repro.ml.features import Datum
from repro.ml.neighbors import NearestNeighbors
from repro.ml.stat import WindowStat
from repro.runtime.sim import SimRuntime
from repro.util.stats import LatencyRecorder

from tests.core.conftest import make_subtask

windows = st.integers(min_value=1, max_value=12)
readings = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
ids = st.sampled_from("abcdefgh")


def _last_distinct(items: list[str], window: int) -> list[str]:
    """Reference for an id window: an id is admitted unless it is among
    the last ``window`` admitted ids; the window is that admitted suffix."""
    admitted: list[str] = []
    for item in items:
        if item not in admitted[-window:]:
            admitted.append(item)
    return admitted


@given(window=windows, values=st.lists(readings, max_size=60))
def test_window_stat_matches_suffix(window, values):
    stat = WindowStat(window)
    for value in values:
        stat.push("k", value)
    ref = values[-window:]
    assert stat.count("k") == len(ref)
    assert stat.export_state() == ({"k": ref} if values else {})
    if not ref:
        assert math.isnan(stat.mean("k"))
        return
    assert stat.min("k") == min(ref)
    assert stat.max("k") == max(ref)
    mean = sum(ref) / len(ref)
    assert stat.mean("k") == pytest.approx(mean, abs=1e-6)
    stddev = math.sqrt(sum((v - mean) ** 2 for v in ref) / len(ref))
    assert stat.stddev("k") == pytest.approx(stddev, abs=1e-4)


@given(window=windows, outcomes=st.lists(st.booleans(), max_size=60))
def test_prequential_windowed_matches_suffix(window, outcomes):
    accuracy = PrequentialAccuracy(window)
    for correct in outcomes:
        accuracy.record(correct)
    ref = outcomes[-window:]
    if not ref:
        assert math.isnan(accuracy.windowed)
    else:
        assert accuracy.windowed == sum(ref) / len(ref)


@given(window=windows, rows=st.lists(ids, max_size=60))
def test_nearest_neighbors_keeps_last_distinct_rows(window, rows):
    nn = NearestNeighbors(window=window)
    for row_id in rows:
        nn.set_row(row_id, Datum.from_mapping({"x": 1.0}))
    kept = _last_distinct(rows, window)[-window:]
    assert [row[0] for row in nn.to_state()["rows"]] == kept
    assert len(nn) == len(kept)


@lru_cache(maxsize=1)
def _module():
    runtime = SimRuntime(seed=5)
    return IFoTCluster(runtime, heartbeat_s=2.0).add_module("m")


def _dedup(window: int) -> tuple[DedupOperator, list[str]]:
    subtask = make_subtask("d", "dedup", params={"window": window})
    operator = DedupOperator(_module(), "app", subtask)
    passed: list[str] = []
    operator.emit = lambda record: passed.append(record.sample_id)
    return operator, passed


def _record(sample_id: str) -> FlowRecord:
    return FlowRecord(
        sample_id=sample_id,
        source="s",
        sensed_at=0.0,
        datum=Datum.from_mapping({}),
    )


@given(window=windows, sample_ids=st.lists(ids, max_size=60))
def test_dedup_drops_only_ids_inside_the_window(window, sample_ids):
    operator, passed = _dedup(window)
    for sample_id in sample_ids:
        operator.on_record("in", _record(sample_id))
    admitted = _last_distinct(sample_ids, window)
    assert passed == admitted
    assert operator.duplicates_dropped == len(sample_ids) - len(admitted)
    assert operator.export_state() == {"order": admitted[-window:]}


@given(window=windows)
def test_dedup_window_edge(window):
    fresh = [f"n{i}" for i in range(window)]
    # A duplicate with window - 1 newer ids between is still remembered...
    operator, passed = _dedup(window)
    for sample_id in ["a", *fresh[:-1], "a"]:
        operator.on_record("in", _record(sample_id))
    assert passed == ["a", *fresh[:-1]]
    # ...one with window newer ids between has been evicted and passes.
    operator, passed = _dedup(window)
    for sample_id in ["a", *fresh, "a"]:
        operator.on_record("in", _record(sample_id))
    assert passed == ["a", *fresh, "a"]


@pytest.mark.parametrize("window", [0, -1])
@pytest.mark.parametrize(
    "build, error",
    [
        (lambda w: WindowStat(w), ConfigurationError),
        (lambda w: PrequentialAccuracy(w), ConfigurationError),
        (lambda w: NearestNeighbors(window=w), ConfigurationError),
        (lambda w: LofLite(window=w), ModelError),
        (_dedup, RecipeError),
    ],
    ids=["WindowStat", "PrequentialAccuracy", "NearestNeighbors", "LofLite", "dedup"],
)
def test_every_window_user_rejects_non_positive_window(build, error, window):
    with pytest.raises(error):
        build(window)


def _bits(values: list[float]) -> list[bytes]:
    return [struct.pack("<d", x) for x in values]


@given(
    cap=st.integers(min_value=1, max_value=16),
    values=st.lists(readings, max_size=120),
)
def test_bounded_store_is_a_deterministic_strided_subsequence(cap, values):
    bounded = LatencyRecorder("b", cap)
    bounded.extend(values)
    exact = LatencyRecorder("e")
    exact.extend(values)
    stride = bounded._stride
    assert bounded.samples == values[stride - 1 :: stride]
    assert len(bounded.samples) <= cap
    assert exact.samples == values
    # Welford statistics never see the decimation.
    assert _bits([bounded.average, bounded.minimum, bounded.maximum]) == _bits(
        [exact.average, exact.minimum, exact.maximum]
    )
    if len(values) <= cap:
        assert stride == 1
        assert _bits(bounded.percentiles(0, 50, 95, 99, 100)) == _bits(
            exact.percentiles(0, 50, 95, 99, 100)
        )
