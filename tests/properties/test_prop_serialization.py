"""Property tests: payloads, datums, flow records survive the wire."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.flow import FlowRecord
from repro.errors import SerializationError
from repro.ml.features import Datum
from repro.util import serialization
from repro.util.serialization import decode_payload, encode_payload

keys = st.text(alphabet="abcdefgh_", min_size=1, max_size=6)
wire_keys = st.one_of(keys, st.text(alphabet="aé\u00ff\u20ac\U0001f600\n\"\\", min_size=1, max_size=4))
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e16, 2**63, -(2**64)]),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(wire_keys, children, max_size=4),
    ),
    max_leaves=20,
)


@given(value=json_values)
def test_payload_round_trip(value):
    assert decode_payload(encode_payload(value)) == value


@given(value=json_values)
def test_encoding_is_deterministic(value):
    assert encode_payload(value) == encode_payload(value)


def _cycle():
    inner = [1]
    value = {"a": inner}
    inner.append(value)
    return value


#: Values the encoder must reject, each built fresh (so its ids can recur).
UNENCODABLE = [
    lambda: {"x": [1.0, math.nan]},
    lambda: [{"k": math.inf}],
    lambda: {1: "x"},
    lambda: {"a": {2: "y", "b": 1}},
    lambda: {"x": object()},
    _cycle,
]


@given(bad=st.sampled_from(UNENCODABLE), value=json_values)
def test_bytes_equal_stdlib_reference_after_a_rejection(bad, value):
    """The once-built encoder writes what ``json.dumps`` writes, and a
    rejected value leaves no circular-reference marker behind."""
    with pytest.raises(SerializationError):
        encode_payload(bad())
    assert serialization._MARKERS == {}
    reference = json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)
    assert encode_payload(value) == reference.encode()
    assert serialization._MARKERS == {}


#: Dicts whose keys may be ``int``/``bool``/``None`` and whose strings may
#: hold a ``{``: what the flat-dict exit and the walk must tell apart. Half
#: are a str-keyed dict around them, so a bad key often sits below a good one.
mixed_keys = st.one_of(keys, st.integers(-2, 2), st.booleans(), st.none())
braced = st.text(alphabet="a{}", max_size=3)
mixed_nested = st.recursive(
    st.dictionaries(mixed_keys, st.one_of(st.integers(), braced), max_size=3),
    lambda children: st.dictionaries(
        mixed_keys, st.one_of(children, st.lists(children, max_size=2), braced), max_size=3
    ),
    max_leaves=10,
)
mixed_dicts = st.one_of(mixed_nested, st.dictionaries(braced, mixed_nested, min_size=1, max_size=2))


def _has_non_str_key(value):
    if isinstance(value, dict):
        return any(not isinstance(k, str) or _has_non_str_key(v) for k, v in value.items())
    return isinstance(value, list) and any(_has_non_str_key(v) for v in value)


@given(value=mixed_dicts)
def test_key_check_agrees_with_a_reference_walk(value):
    if _has_non_str_key(value):
        with pytest.raises(SerializationError, match="^non-string key at "):
            serialization.encode_fragment(value)
    else:
        reference = json.dumps(value, sort_keys=True, separators=(",", ":"))
        assert serialization.encode_fragment(value) == reference
    assert serialization._MARKERS == {}


datum_strategy = st.builds(
    Datum,
    string_values=st.dictionaries(keys, st.text(max_size=10), max_size=5),
    num_values=st.dictionaries(keys, finite, max_size=5),
)


@given(datum=datum_strategy)
def test_datum_round_trip(datum):
    assert Datum.from_payload(datum.to_payload()) == datum


@given(
    datum=datum_strategy,
    sample_id=st.text(min_size=1, max_size=12),
    sensed_at=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    path=st.lists(keys, max_size=4),
)
def test_flow_record_round_trip(datum, sample_id, sensed_at, path):
    record = FlowRecord(
        sample_id=sample_id,
        source="node",
        sensed_at=sensed_at,
        datum=datum,
        path=path,
    )
    clone = FlowRecord.from_payload(record.to_payload())
    assert clone.sample_id == record.sample_id
    assert clone.sensed_at == record.sensed_at
    assert clone.datum == record.datum
    assert clone.path == record.path


@given(records=st.lists(
    st.builds(
        FlowRecord,
        sample_id=st.text(alphabet="abc123", min_size=1, max_size=6),
        source=st.sampled_from(["s1", "s2", "s3"]),
        sensed_at=st.floats(min_value=0, max_value=100, allow_nan=False),
        datum=datum_strategy,
    ),
    min_size=1,
    max_size=6,
))
def test_merge_invariants(records):
    merged = FlowRecord.merge("w", records)
    assert merged.sensed_at == min(r.sensed_at for r in records)
    assert merged.sample_id in {r.sample_id for r in records}
    assert set(merged.merged_ids) == {r.sample_id for r in records}
    # Merged datum keys are the union of member keys.
    expected_keys = set()
    for r in records:
        expected_keys |= set(r.datum.num_values) | set(r.datum.string_values)
    got_keys = set(merged.datum.num_values) | set(merged.datum.string_values)
    assert got_keys == expected_keys
