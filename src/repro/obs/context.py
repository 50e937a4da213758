"""Flow tracing contexts and spans.

A *trace* follows one sensor reading (and everything derived from it)
hop-by-hop through the middleware: sampling, operator processing, MQTT
publish, broker routing, delivery, windowing, training. Each hop is a
*span*; spans form a tree rooted at the sensing instant (window/merge
operators fold several sub-trees together and record the extra parents as
``links``).

The :class:`FlowContext` is the part that travels: a compact, JSON-ready
reference to the span that produced a message, carried in MQTT message
user-properties (the ``headers`` dict) and on in-process
:class:`~repro.core.flow.FlowRecord` instances. Everything here is
deterministic — span and trace identifiers come from the runtime's
sequential :class:`~repro.util.ids.IdGenerator`, never from ``uuid`` or
wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, NamedTuple

__all__ = ["FlowContext", "Span", "SPAN_EVENT"]

#: Trace event name under which finished spans are recorded.
SPAN_EVENT = "obs.span"


class _WireContext(dict):
    """:meth:`FlowContext.to_wire` output that remembers its context.

    An ordinary dict to everything that reads or encodes it (same keys,
    same JSON bytes); :meth:`FlowContext.from_wire` recognizes the exact
    type and hands the context back without re-parsing. Holds while the
    headers object travels in-process (the ``_Wire`` packet fast path);
    a dict decoded from wire bytes is a plain ``dict`` and is parsed.
    """

    __slots__ = ("ctx", "text")


class FlowContext(NamedTuple):
    """Causal reference to one span, small enough to ride in headers.

    Attributes
    ----------
    trace_id:
        Identifier of the whole span tree (one per root sensing event).
    span_id:
        Identifier of the span this context points at.
    parent_id:
        The span's parent (empty string for roots) — carried so a
        receiver can reason about causality without the full trace.
    hop:
        Number of spans between this one and the root; strictly
        increases along any parent chain.
    """

    trace_id: str
    span_id: str
    parent_id: str = ""
    hop: int = 0

    def to_wire(self) -> dict[str, Any]:
        """Compact JSON-ready form for MQTT user-properties."""
        wire = _WireContext(t=self.trace_id, s=self.span_id, p=self.parent_id, h=self.hop)
        wire.ctx = self
        wire.text = None
        return wire

    @staticmethod
    def wire_text(data: Any) -> str | None:
        """Canonical JSON of a :meth:`to_wire` result, built once from its
        context — not from the dict's contents, so a dict edited after
        ``to_wire`` no longer matches it; None for any other value."""
        if type(data) is not _WireContext:
            return None
        text = data.text
        if text is None:
            trace_id, span_id, parent_id, hop = data.ctx
            text = data.text = (
                f'{{"h":{hop},"p":{_quote(parent_id)},"s":{_quote(span_id)},"t":{_quote(trace_id)}}}'
            )
        return text

    @classmethod
    def from_wire(cls, data: Any) -> "FlowContext | None":
        """Parse :meth:`to_wire` output; None for malformed input."""
        if type(data) is _WireContext:
            return data.ctx
        if not isinstance(data, dict):
            return None
        try:
            return cls(
                trace_id=str(data["t"]),
                span_id=str(data["s"]),
                parent_id=str(data.get("p", "")),
                hop=int(data.get("h", 0)),
            )
        except (KeyError, TypeError, ValueError):
            return None


@dataclass(slots=True)
class Span:
    """One open span; finished via :meth:`repro.obs.state.ObsState.finish`.

    ``links`` are span ids of *additional* parents beyond ``ctx.parent_id``
    (window/merge operators fold several causal chains into one output).
    """

    ctx: FlowContext
    name: str
    node: str
    incarnation: int
    start: float
    links: tuple[str, ...] = ()
    fields: dict[str, Any] = field(default_factory=dict)
