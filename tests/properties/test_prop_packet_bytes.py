"""Property tests: ``Packet.encode`` writes the canonical encoder's bytes.

PUBLISH and PUBACK frames are written directly and splice in a memoized
payload fragment; ``encode_payload`` over the whole body is the
reference. Any field set — constructor-built or adversarial — must give
the same bytes, the same round trip and the same errors on both.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.mqtt.packets import Packet, PacketType
from repro.obs.context import FlowContext
from repro.util.serialization import encode_payload

# Non-ASCII, quotes, backslashes and control characters all need escaping.
texts = st.text(max_size=12)
names = st.one_of(texts, st.sampled_from(["t/x", 'q"uo\\te', "café/温度", "\x00\n\t"]))
finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), finite, texts)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(texts, children, max_size=3)
    ),
    max_leaves=12,
)
packet_ids = st.integers(min_value=1, max_value=65535)
qos_levels = st.sampled_from([0, 1])
obs_headers = st.builds(
    lambda t, s, p, h: {"obs": FlowContext(t, s, p, h).to_wire()},
    texts, texts, texts, st.integers(min_value=0, max_value=9),
)
headers = st.one_of(
    st.just({}),
    st.dictionaries(texts, values, max_size=3),
    obs_headers,
    st.builds(
        lambda a, b: {**a, **b}, st.dictionaries(texts, values, max_size=2), obs_headers
    ),
)


@st.composite
def publishes(draw):
    qos = draw(qos_levels)
    return Packet.publish(
        topic=draw(names),
        payload=draw(values),
        qos=qos,
        retain=draw(st.booleans()),
        dup=draw(st.booleans()),
        packet_id=draw(packet_ids) if qos else draw(st.none() | packet_ids),
        headers=draw(headers),
    )


constructed = st.one_of(
    publishes(),
    st.builds(
        Packet.connect, names, st.booleans(), finite,
        st.none() | st.fixed_dictionaries(
            {"topic": names, "payload": values, "qos": qos_levels, "retain": st.booleans()}
        ),
    ),
    st.builds(Packet.connack, st.booleans(), st.integers(0, 5)),
    st.builds(Packet.puback, packet_ids),
    st.builds(
        Packet.subscribe, packet_ids, st.lists(st.tuples(names, qos_levels), max_size=3)
    ),
    st.builds(Packet.suback, packet_ids, st.lists(qos_levels, max_size=3)),
    st.builds(Packet.unsubscribe, packet_ids, st.lists(names, max_size=3)),
    st.builds(Packet.unsuback, packet_ids),
    st.builds(Packet.pingreq, st.none() | st.integers(0, 99)),
    st.just(Packet.pingresp()),
    st.just(Packet.disconnect()),
)

# Field sets the constructors never build: a well-formed PUBLISH with one
# to three keys dropped, added, or given a value of a type the writer
# would format without the encoder.
_WRONG = {
    "topic": st.integers() | st.none() | st.lists(names, max_size=2),
    "payload": values,
    "qos": st.sampled_from([2, -1, True, False, 1.0, 0.5, None, "1"]),
    "retain": st.sampled_from([0, 1, None, "false"]),
    "dup": st.sampled_from([0, 1, None, "true"]),
    "headers": st.none() | st.lists(values, max_size=2) | texts,
    "packet_id": st.sampled_from([True, False, 7.0, None, "7"]),
    "fwd_id": names | st.integers() | st.none() | st.booleans(),
    "extra": values,
}


@st.composite
def adversarial_fields(draw):
    fields = dict(draw(publishes()).fields)
    for key in draw(st.lists(st.sampled_from(sorted(_WRONG)), min_size=1, max_size=3)):
        if key in fields and draw(st.booleans()):
            del fields[key]
        else:
            fields[key] = draw(_WRONG[key])
    return fields


def reference(packet):
    return encode_payload({**packet.fields, "_t": packet.type.value})


def check(packet):
    data = bytes(packet.encode())
    assert data == reference(packet)
    decoded = Packet.decode(data)
    assert decoded.type is packet.type
    assert decoded.fields == packet.fields
    assert bytes(packet.encode()) == data  # the memo changes nothing


@given(packet=constructed)
def test_constructed_packets_match_the_reference(packet):
    check(packet)


@given(fields=adversarial_fields())
# Six keys like a QoS 0 PUBLISH, but one of them is not ``payload``.
@example(fields={"topic": "t", "extra": 1, "qos": 0, "retain": False, "dup": False, "headers": {}})
def test_adversarial_publish_fields_match_the_reference(fields):
    check(Packet(PacketType.PUBLISH, fields))


@given(
    fields=st.dictionaries(
        st.sampled_from(["packet_id", "extra"]),
        st.sampled_from([7, 0, -3, True, False, 7.0, None, "7"]),
        max_size=2,
    )
)
def test_adversarial_puback_fields_match_the_reference(fields):
    check(Packet(PacketType.PUBACK, fields))


@given(
    source=publishes(),
    qos=qos_levels,
    retain=st.booleans(),
    packet_id=packet_ids,
    new_headers=headers,
    fwd_id=names,
)
def test_derived_packets_match_the_reference(
    source, qos, retain, packet_id, new_headers, fwd_id
):
    """Forward copies and dups inherit the fragment, whether the source
    computed it before (it was sent) or not (it was decoded)."""
    source_bytes = bytes(source.encode()) if retain else None
    copy = source.forwarded(
        qos, retain, packet_id if qos else None, new_headers, fwd_id if qos else None
    )
    check(copy)
    check(copy.as_dup())
    check(source.as_dup())
    if source_bytes is not None:
        assert bytes(source.encode()) == source_bytes


unencodable = st.one_of(
    st.dictionaries(st.integers(), scalars, min_size=1, max_size=2),  # non-str key
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.sampled_from([object(), {1, 2}, b"bytes", 1j]),
)


@st.composite
def poisoned(draw):
    """A JSON value with one unencodable leaf somewhere inside it."""
    value = draw(unencodable)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            value = {**draw(st.dictionaries(texts, scalars, max_size=2)), draw(texts): value}
        else:
            items = draw(st.lists(scalars, max_size=2))
            items.insert(draw(st.integers(0, len(items))), value)
            value = items
    return value


@given(
    bad=poisoned(),
    good=values,
    where=st.sampled_from(["payload", "headers"]),
    qos=qos_levels,
)
def test_errors_name_the_offending_path(bad, good, where, qos):
    payload, header = (bad, good) if where == "payload" else (good, bad)
    packet = Packet.publish(
        "t", payload, qos=qos, packet_id=qos or None, headers={"k": header}
    )
    with pytest.raises(SerializationError) as expected:
        reference(packet)
    with pytest.raises(SerializationError) as raised:
        packet.encode()
    assert str(raised.value) == str(expected.value)
    assert f"at $.{where}" in str(raised.value)
    with pytest.raises(SerializationError):
        packet.as_dup().encode()
