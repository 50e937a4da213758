"""The medium base class and its interface: attachment, datagram send and
receive, the per-interface byte counters, a frame's wire size (payload plus
link header) and the partition mask's heal rule (both groups or neither;
an empty group names no cut).
"""

import pytest

from repro.errors import AddressError, TransportError
from repro.net.address import Address
from repro.net.frame import LINK_HEADER_BYTES, Frame
from repro.net.medium import Medium


class LoopbackMedium(Medium):
    """Delivers synchronously — enough to exercise the base class."""

    def transmit(self, frame: Frame) -> None:
        interface = self._interfaces.get(frame.destination.station)
        if interface is not None:
            interface.deliver(frame)


def test_attach_detach_and_lookup():
    m = LoopbackMedium()
    m.attach("a")
    assert m.stations == ["a"]
    with pytest.raises(AddressError):
        m.attach("a")
    m.detach("a")
    assert m.stations == []
    with pytest.raises(AddressError):
        m.interface("a")


def test_send_and_receive():
    m = LoopbackMedium()
    a = m.attach("a")
    b = m.attach("b")
    got = []
    b.bind("svc", lambda src, data: got.append((str(src), data)))
    a.send("cli", Address("b", "svc"), b"hello")
    assert got == [("a/cli", b"hello")]


def test_unbound_service_drops_silently():
    m = LoopbackMedium()
    a = m.attach("a")
    m.attach("b")
    a.send("cli", Address("b", "nothing"), b"x")  # no exception


def test_double_bind_rejected():
    m = LoopbackMedium()
    a = m.attach("a")
    a.bind("svc", lambda s, d: None)
    with pytest.raises(TransportError):
        a.bind("svc", lambda s, d: None)


def test_unbind_then_rebind():
    m = LoopbackMedium()
    a = m.attach("a")
    a.bind("svc", lambda s, d: None)
    a.unbind("svc")
    a.bind("svc", lambda s, d: None)  # no error


def test_counters():
    m = LoopbackMedium()
    a = m.attach("a")
    b = m.attach("b")
    b.bind("svc", lambda s, d: None)
    a.send("cli", Address("b", "svc"), b"12345")
    assert a.frames_sent == 1
    assert a.bytes_sent == 5 + LINK_HEADER_BYTES
    assert b.frames_received == 1
    assert b.bytes_received == 5 + LINK_HEADER_BYTES


def test_frame_ids_increment():
    m = LoopbackMedium()
    a = m.attach("a")
    b = m.attach("b")
    ids = []
    b.bind("svc", lambda s, d: None)
    orig_transmit = m.transmit
    m.transmit = lambda frame: (ids.append(frame.frame_id), orig_transmit(frame))[-1]
    for _ in range(3):
        a.send("cli", Address("b", "svc"), b"")
    assert ids == [0, 1, 2]


def test_wire_size_includes_header():
    f = Frame(Address("a"), Address("b"), b"abc")
    assert f.wire_size == 3 + LINK_HEADER_BYTES


@pytest.mark.parametrize("groups", [(("a",), None), (None, ("b",)), ((), ("b",))])
def test_one_sided_heal_is_rejected_and_keeps_the_cut(groups):
    m = LoopbackMedium()
    m.partition(("a",), ("b",))
    with pytest.raises(AddressError, match="both groups or neither"):
        m.heal(*groups)
    assert m.is_blocked("a", "b")
