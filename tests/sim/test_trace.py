import pytest

from repro.errors import SerializationError
from repro.sim.trace import Tracer


def test_emit_and_select():
    t = Tracer()
    t.emit(1.0, "a", "ev.x", value=1)
    t.emit(2.0, "b", "ev.y")
    t.emit(3.0, "a", "ev.y")
    assert len(t) == 3
    assert [r.time for r in t.select(event="ev.y")] == [2.0, 3.0]
    assert [r.event for r in t.select(source="a")] == ["ev.x", "ev.y"]
    assert len(t.select(event="ev.y", source="a")) == 1


def test_count():
    t = Tracer()
    for _ in range(3):
        t.emit(0.0, "s", "e")
    assert t.count("e") == 3
    assert t.count("other") == 0


def test_record_getitem():
    t = Tracer()
    t.emit(0.0, "s", "e", foo="bar")
    record = t.select("e")[0]
    assert record["foo"] == "bar"


def test_taps_fire_even_when_disabled():
    t = Tracer(enabled=False)
    seen = []
    t.tap("e", seen.append)
    t.emit(0.0, "s", "e", n=1)
    assert len(t) == 0  # not stored
    assert len(seen) == 1  # but tapped
    assert seen[0]["n"] == 1


def test_multiple_taps_same_event():
    t = Tracer()
    a, b = [], []
    t.tap("e", a.append)
    t.tap("e", b.append)
    t.emit(0.0, "s", "e")
    assert len(a) == len(b) == 1


def test_clear():
    t = Tracer()
    t.emit(0.0, "s", "e")
    t.clear()
    assert len(t) == 0


def test_iteration():
    t = Tracer()
    t.emit(0.0, "s", "e1")
    t.emit(1.0, "s", "e2")
    assert [r.event for r in t] == ["e1", "e2"]


def test_jsonl_round_trip(tmp_path):
    t = Tracer()
    t.emit(1.0, "a", "ev.x", value=1, name="hello")
    t.emit(2.5, "b", "ev.y", nested={"k": [1, 2]})
    path = tmp_path / "trace.jsonl"
    assert t.to_jsonl(path) == 2
    clone = Tracer.from_jsonl(path)
    assert len(clone) == 2
    records = list(clone)
    assert records[0].time == 1.0
    assert records[0].source == "a"
    assert records[0]["value"] == 1
    assert records[1]["nested"] == {"k": [1, 2]}


def test_jsonl_unencodable_fields_reprd(tmp_path):
    t = Tracer()
    t.emit(0.0, "s", "e", weird=object())
    path = tmp_path / "trace.jsonl"
    t.to_jsonl(path)
    clone = Tracer.from_jsonl(path)
    assert "object" in list(clone)[0]["weird"]


def test_jsonl_empty(tmp_path):
    t = Tracer()
    path = tmp_path / "trace.jsonl"
    assert t.to_jsonl(path) == 0
    assert len(Tracer.from_jsonl(path)) == 0


@pytest.mark.parametrize(
    "line",
    [
        '{"t": 1.0, "src": "a", "ev": "e", "value": 1}',  # flat, no "f"
        '{"x": 1}',  # missing keys
        "[1, 2]",  # not an object
        '{"t": 1.0, "src": "a", "ev": "e", "f": [1]}',  # fields not an object
    ],
    ids=["flat", "missing-key", "non-object", "non-object-fields"],
)
def test_jsonl_malformed_line_names_file_and_line(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 0.0, "src": "a", "ev": "e", "f": {}}\n' + line + "\n")
    with pytest.raises(SerializationError, match=r"bad\.jsonl:2: not a trace record"):
        Tracer.from_jsonl(path)
