"""Canonical payload encoding: round trips, rejections that name the
offending path, the dict-key check on flat and nested dicts, and decoding
that rejects what no encoder here writes."""

import math
import re
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

import repro
from repro.errors import SerializationError
from repro.util.serialization import decode_payload, encode_fragment, encode_payload, payload_size


def test_round_trip_scalars():
    for value in (None, True, False, 0, -17, 3.25, "hello", ""):
        assert decode_payload(encode_payload(value)) == value


def test_round_trip_nested():
    value = {"a": [1, 2, {"b": "x"}], "c": {"d": None}}
    assert decode_payload(encode_payload(value)) == value


def test_canonical_key_order():
    a = encode_payload({"b": 1, "a": 2})
    b = encode_payload({"a": 2, "b": 1})
    assert a == b


def test_tuple_becomes_list():
    assert decode_payload(encode_payload((1, 2))) == [1, 2]


def test_rejects_nan_and_inf():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SerializationError):
            encode_payload({"x": bad})


def test_rejects_non_string_keys():
    with pytest.raises(SerializationError):
        encode_payload({1: "x"})


class _Key(str):
    pass


#: ``(value, where its non-string key is)``: a flat dict's keys are checked
#: in one ``str.join``; a ``{`` anywhere after the first sends the value
#: through the walk, as does every container but an exact ``dict``.
BAD_KEYS = [
    ({1: "{"}, "$: 1"),  # a brace inside a string: walked
    ({"{": {2: 0}}, "$.{: 2"),  # nested under a brace-named key
    ({True: 1}, "$: True"),  # flat: rejected by the join
    ({"a": "x{", "b": {None: 1}}, "$.b: None"),
    ([{1: 2}], "$[0]: 1"),  # a list is always walked
    (OrderedDict([(1, 2)]), "$: 1"),  # a dict subclass is always walked
]


@pytest.mark.parametrize("value, where", BAD_KEYS)
def test_a_non_string_key_is_rejected_naming_its_path(value, where):
    with pytest.raises(SerializationError, match=f"^{re.escape('non-string key at ' + where)}$"):
        encode_fragment(value)


def test_a_str_subclass_key_is_accepted():
    assert encode_fragment({_Key("k"): 1, "a": "{"}) == '{"a":"{","k":1}'
    assert encode_fragment({_Key("k"): 1}) == '{"k":1}'


def test_rejects_unknown_types():
    with pytest.raises(SerializationError):
        encode_payload({"x": object()})
    with pytest.raises(SerializationError):
        encode_payload({"x": b"bytes"})


def test_error_mentions_path():
    with pytest.raises(SerializationError, match=r"\$\.outer\[1\]"):
        encode_payload({"outer": [1, object()]})


def test_decode_garbage():
    with pytest.raises(SerializationError):
        decode_payload(b"\xff\xfe")
    with pytest.raises(SerializationError):
        decode_payload(b"{not json")
    # JSON no encoder here writes: non-finite constants, an integer over
    # CPython's digit limit, nesting past the recursion limit.
    for data in (b"NaN", b'{"x":-Infinity}', b"[Infinity]", b"1" * 5000, b"[" * 100_000):
        with pytest.raises(SerializationError, match="^undecodable payload: "):
            decode_payload(data)


def test_payload_size_matches_encoding():
    value = {"key": "value", "n": 1}
    assert payload_size(value) == len(encode_payload(value))


#: Each cycle is encoded in a child process with a timeout, so an encoder
#: that walks a cycle forever fails the test instead of hanging the suite.
CYCLES = {
    "dict": ('d = {"x": 1}; d["a"] = d', "d", r"$.a"),
    "list": ("l = [1]; l.append(l)", "l", r"$[1]"),
    "nested": ('d = {"k": [0, {}]}; d["k"][1]["up"] = d["k"]', "d", r"$.k[1].up"),
}


@pytest.mark.parametrize("name", sorted(CYCLES))
def test_cycle_raises_naming_the_circular_reference(name):
    build, value, path = CYCLES[name]
    script = (
        "from repro.errors import SerializationError\n"
        "from repro.util.serialization import encode_payload\n"
        f"{build}\n"
        "try:\n"
        f"    encode_payload({value})\n"
        "except SerializationError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=30, env={"PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"circular reference at {path}"


def test_shared_acyclic_sublist_encodes():
    shared = [1, {"b": 2}]
    value = {"a": shared, "c": shared, "d": [shared, shared]}
    assert encode_payload(value) == (
        b'{"a":[1,{"b":2}],"c":[1,{"b":2}],"d":[[1,{"b":2}],[1,{"b":2}]]}'
    )
