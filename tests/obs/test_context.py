"""FlowContext wire encoding and ObsState span lifecycle."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import FlowContext, SPAN_EVENT, enable_observability
from repro.runtime.sim import SimRuntime
from repro.util.serialization import decode_payload, encode_payload


def test_wire_round_trip():
    ctx = FlowContext("tr-1", "sp-2", parent_id="sp-1", hop=3)
    assert FlowContext.from_wire(ctx.to_wire()) == ctx


def test_wire_root_defaults():
    ctx = FlowContext("tr-1", "sp-1")
    wire = ctx.to_wire()
    assert wire == {"t": "tr-1", "s": "sp-1", "p": "", "h": 0}
    assert FlowContext.from_wire(wire) == ctx


def test_from_wire_malformed_returns_none():
    assert FlowContext.from_wire(None) is None
    assert FlowContext.from_wire("nope") is None
    assert FlowContext.from_wire({}) is None
    assert FlowContext.from_wire({"t": "tr-1"}) is None
    assert FlowContext.from_wire({"t": "tr-1", "s": "sp-1", "h": "x"}) is None


def test_from_wire_ignores_extra_keys():
    ctx = FlowContext.from_wire({"t": "a", "s": "b", "p": "", "h": 1, "zz": 9})
    assert ctx is not None
    assert ctx.hop == 1


def _node(runtime):
    return runtime.add_node("n1")


def test_start_finish_span_emits_record():
    runtime = SimRuntime(seed=1)
    obs = enable_observability(runtime, scrape_interval_s=0)
    node = _node(runtime)
    span = obs.start_span("sense", node, sample="s-1")
    assert span.ctx.parent_id == ""
    assert span.ctx.hop == 0
    ctx = obs.finish(span, extra=7)
    records = runtime.tracer.select(SPAN_EVENT)
    assert len(records) == 1
    rec = records[0]
    assert rec["trace"] == ctx.trace_id
    assert rec["span"] == ctx.span_id
    assert rec["name"] == "sense"
    assert rec["sample"] == "s-1"
    assert rec["extra"] == 7
    assert rec["inc"] == node.incarnation


def test_child_span_inherits_trace_and_increments_hop():
    runtime = SimRuntime(seed=1)
    obs = enable_observability(runtime, scrape_interval_s=0)
    node = _node(runtime)
    root = obs.finish(obs.start_span("sense", node))
    child = obs.start_span("publish", node, parent=root)
    assert child.ctx.trace_id == root.trace_id
    assert child.ctx.parent_id == root.span_id
    assert child.ctx.hop == root.hop + 1


def test_span_ids_are_deterministic_sequences():
    runtime = SimRuntime(seed=1)
    obs = enable_observability(runtime, scrape_interval_s=0)
    node = _node(runtime)
    first = obs.start_span("a", node)
    second = obs.start_span("b", node, parent=first.ctx)
    assert first.ctx.span_id == "sp-0"
    assert first.ctx.trace_id == "tr-0"
    assert second.ctx.span_id == "sp-1"
    assert second.ctx.trace_id == "tr-0"


def test_enable_observability_is_idempotent():
    runtime = SimRuntime(seed=1)
    first = enable_observability(runtime, scrape_interval_s=0)
    second = enable_observability(runtime, scrape_interval_s=0)
    assert first is second
    assert runtime.obs is first


def test_point_span_has_zero_duration():
    runtime = SimRuntime(seed=1)
    obs = enable_observability(runtime, scrape_interval_s=0)
    node = _node(runtime)
    obs.point("broker", node, topic="t")
    rec = runtime.tracer.select(SPAN_EVENT)[0]
    assert rec["start"] == rec.time


# ----------------------------------------------------------------------
# The wire dict remembers its context; a decoded one is parsed
# ----------------------------------------------------------------------

_ids = st.text(min_size=1, max_size=12)
contexts = st.builds(
    FlowContext,
    trace_id=_ids,
    span_id=_ids,
    parent_id=st.text(max_size=12),
    hop=st.integers(min_value=0, max_value=10_000),
)


@given(ctx=contexts)
def test_wire_round_trip_in_process_and_through_json(ctx):
    wire = ctx.to_wire()
    # In-process (the `_Wire` packet fast path hands this very object on).
    assert FlowContext.from_wire(wire) == ctx
    # Off the wire it is a plain dict with the same bytes, parsed as ever.
    decoded = decode_payload(encode_payload(wire))
    assert type(decoded) is dict
    assert decoded == wire == {
        "t": ctx.trace_id, "s": ctx.span_id, "p": ctx.parent_id, "h": ctx.hop
    }
    assert encode_payload(decoded) == encode_payload(wire)
    assert FlowContext.from_wire(decoded) == ctx
    # A shallow header copy (broker fan-out, retained store) keeps the object.
    assert FlowContext.from_wire({**{"obs": wire}}["obs"]) == ctx


@given(
    data=st.one_of(
        st.none(),
        st.text(),
        st.integers(),
        st.lists(st.integers()),
        st.dictionaries(st.sampled_from(["t", "p", "h", "zz"]), st.integers()),
        st.fixed_dictionaries(
            {"t": _ids, "s": _ids, "h": st.sampled_from(["x", None, [1], {}])}
        ),
    )
)
def test_from_wire_malformed_is_none(data):
    assert FlowContext.from_wire(data) is None


@pytest.mark.parametrize("storage", [True, False])
@pytest.mark.parametrize(
    "reserved", ["trace", "span", "parent", "name", "hop", "inc", "start"]
)
def test_reserved_span_field_is_a_type_error(reserved, storage):
    """As when the fields were ``**``-splatted into ``Tracer.emit`` beside
    the reserved keywords — whether or not anything consumes the span."""
    runtime = SimRuntime(seed=1)
    runtime.tracer.enabled = storage
    obs = enable_observability(runtime, scrape_interval_s=0)
    node = _node(runtime)
    with pytest.raises(TypeError):
        obs.finish(obs.start_span("a", node), **{reserved: 1})
    if reserved in ("parent", "start"):
        return  # start_span's own parameters, not span fields
    with pytest.raises(TypeError):
        obs.finish(obs.start_span("a", node, **{reserved: 1}))
    with pytest.raises(TypeError):
        obs.point("a", node, **{reserved: 1})


@pytest.mark.parametrize("refused", ["point", "start_span", "finish"])
def test_a_refused_span_draws_no_id_and_is_not_counted(refused):
    """A reserved field is refused where it is given: the next span's id,
    its trace's id and ``spans_emitted`` are those of a run without the
    refused span (``point`` and ``start_span`` used to draw both ids, and
    ``finish`` to count the span, before raising)."""

    def run(refuse):
        runtime = SimRuntime(seed=1)
        obs = enable_observability(runtime, scrape_interval_s=0)
        node = _node(runtime)
        obs.point("a", node)
        span = obs.start_span("b", node, k=1)
        if refuse:
            with pytest.raises(TypeError):
                if refused == "point":
                    obs.point("c", node, hop=1)
                elif refused == "start_span":
                    obs.start_span("c", node, inc=2)
                else:
                    obs.finish(span, trace="x")
        obs.finish(span, k=2)
        ctx = obs.point("d", node)
        return ctx, obs.spans_emitted, runtime.tracer.select(SPAN_EVENT)[-2].fields

    assert run(refuse=True) == run(refuse=False)


def test_finish_fields_override_start_fields_in_place():
    runtime = SimRuntime(seed=1)
    obs = enable_observability(runtime, scrape_interval_s=0)
    obs.finish(obs.start_span("a", _node(runtime), k=1, task="t"), k=2, outcome="ok")
    fields = runtime.tracer.select(SPAN_EVENT)[0].fields
    assert list(fields) == [
        "trace", "span", "parent", "name", "hop", "inc", "start", "k", "task", "outcome"
    ]
    assert fields["k"] == 2
