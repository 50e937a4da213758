"""Observability state attached to a runtime.

``Runtime.obs`` is ``None`` by default; every instrumentation site in the
middleware guards with ``if runtime.obs is not None`` and allocates
nothing when it is. :func:`enable_observability` installs an
:class:`ObsState`, which owns:

* span bookkeeping — deterministic trace/span ids from the runtime's
  sequential id generator, finished spans emitted as ``obs.span`` trace
  records (see :mod:`repro.obs.context`);
* the :class:`~repro.obs.metrics.MetricsRegistry`, plus a sim-time
  scraper that samples every instrument into ``obs.metrics`` trace
  records at a fixed interval.

Per-event work is done for a consumer that exists: ids are always drawn
and the scrape timer always fires (both are part of the simulated
schedule), but a span's record dict and the registry snapshot are built
only when :meth:`Tracer.wants <repro.sim.trace.Tracer.wants>` them —
trace storage on, or a tap on that event. Span consumers
(:meth:`ObsState.add_span_consumer`, how the SLO engine listens) get
their values without a record.

Determinism contract: with the same seed and topology, two runs produce
byte-identical trace dumps — nothing here reads wall-clock, ``random`` or
``uuid``, and all iteration over registries is sorted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.obs.context import SPAN_EVENT, FlowContext, Span
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime
    from repro.runtime.node import Node

__all__ = ["ObsState", "enable_observability", "METRICS_EVENT"]

#: Trace event name under which metric scrapes are recorded.
METRICS_EVENT = "obs.metrics"

#: ``consumer(end, trace_id, parent_id, stage, start)``, see
#: :meth:`ObsState.add_span_consumer`.
SpanConsumer = Callable[[float, str, str, str, float], None]

#: Keys :meth:`ObsState.finish` writes itself; a span field may not reuse one.
_RESERVED = frozenset({"trace", "span", "parent", "name", "hop", "inc", "start"})


class ObsState:
    """Per-runtime observability: span factory + metrics registry."""

    def __init__(
        self,
        runtime: "Runtime",
        scrape_interval_s: float = 1.0,
        metrics: bool = True,
    ) -> None:
        self.runtime = runtime
        self.metrics: MetricsRegistry | None = MetricsRegistry() if metrics else None
        self.scrape_interval_s = scrape_interval_s
        self.spans_emitted = 0
        self.scrapes = 0
        self._scraping = False
        self._span_consumers: list[SpanConsumer] = []
        if self.metrics is not None and scrape_interval_s > 0:
            self._scraping = True
            runtime.call_later(scrape_interval_s, self._scrape)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def start_span(
        self,
        name: str,
        node: "Node",
        parent: FlowContext | None = None,
        start: float | None = None,
        links: tuple[str, ...] = (),
        **fields: Any,
    ) -> Span:
        """Open a span; roots (``parent=None``) also open a new trace."""
        runtime = self.runtime
        ids = runtime.ids
        span_id = f"sp-{ids.next_int('obs.span')}"
        if parent is None:
            ctx = FlowContext(f"tr-{ids.next_int('obs.trace')}", span_id, "", 0)
        else:
            ctx = FlowContext(parent.trace_id, span_id, parent.span_id, parent.hop + 1)
        return Span(
            ctx,
            name,
            node.name,
            node.incarnation,
            runtime.now if start is None else start,
            tuple(links),
            fields,
        )

    def finish(self, span: Span, **fields: Any) -> FlowContext:
        """Close ``span`` now and return its context.

        The ``obs.span`` trace record is built only when the tracer
        stores it or a tap wants it; span consumers, called after it, get
        the five values they read and no record.
        """
        self.spans_emitted += 1
        if fields:
            span.fields.update(fields)
        if not _RESERVED.isdisjoint(span.fields):  # consumed or not
            raise TypeError(f"reserved span field in {sorted(span.fields)}")
        runtime = self.runtime
        now = runtime.now
        ctx = span.ctx
        tracer = runtime.tracer
        if tracer.wants(SPAN_EVENT):
            record = {
                "trace": ctx.trace_id,
                "span": ctx.span_id,
                "parent": ctx.parent_id,
                "name": span.name,
                "hop": ctx.hop,
                "inc": span.incarnation,
                "start": span.start,
                **span.fields,
            }
            if span.links:
                record["links"] = list(span.links)
            tracer.emit_fields(now, span.node, SPAN_EVENT, record)
        if self._span_consumers:
            stage = span.fields.get("task") or span.name
            for consumer in self._span_consumers:
                consumer(now, ctx.trace_id, ctx.parent_id, stage, span.start)
        return ctx

    def add_span_consumer(self, consumer: SpanConsumer) -> None:
        """Call ``consumer(end, trace_id, parent_id, stage, start)`` for
        every span finished from now on (``stage`` is the span's ``task``
        field, else its name). Unlike an ``obs.span`` tracer tap this
        does not make :meth:`finish` build a trace record."""
        self._span_consumers.append(consumer)

    def point(
        self,
        name: str,
        node: "Node",
        parent: FlowContext | None = None,
        links: tuple[str, ...] = (),
        **fields: Any,
    ) -> FlowContext:
        """Zero-duration span (a causal hop without a measured interval)."""
        return self.finish(self.start_span(name, node, parent, links=links, **fields))

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def register_node(self, node: "Node") -> None:
        """Idempotently attach the per-node instruments (queue depth, CPU
        service time). Called from ``Component.__init__`` so any node that
        hosts software is covered, including nodes added after enable."""
        registry = self.metrics
        if registry is None:
            return
        cpu = node.cpu
        if cpu is None:
            return
        registry.gauge(
            "node.cpu.queue_depth", fn=lambda: float(cpu.queue_length), node=node.name
        )
        registry.gauge(
            "node.cpu.busy_s", fn=lambda: cpu.stats.busy_time, node=node.name
        )
        registry.gauge(
            "node.cpu.service_mean_s",
            fn=lambda: cpu.service_times.mean if cpu.service_times.count else 0.0,
            node=node.name,
        )

    def _scrape(self) -> None:
        if not self._scraping or self.metrics is None:
            return
        self.scrapes += 1
        tracer = self.runtime.tracer
        if tracer.wants(METRICS_EVENT):  # else nobody would see the snapshot
            tracer.emit(
                self.runtime.now, "obs", METRICS_EVENT, m=self.metrics.snapshot()
            )
        self.runtime.call_later(self.scrape_interval_s, self._scrape)

    def stop_scraping(self) -> None:
        self._scraping = False


def enable_observability(
    runtime: "Runtime",
    scrape_interval_s: float = 1.0,
    metrics: bool = True,
) -> ObsState:
    """Install observability on ``runtime`` (idempotent).

    Returns the installed :class:`ObsState`.
    """
    if runtime.obs is not None:
        return runtime.obs
    state = ObsState(runtime, scrape_interval_s=scrape_interval_s, metrics=metrics)
    runtime.obs = state
    if state.metrics is not None:
        wlan = getattr(runtime, "wlan", None)
        if wlan is not None:
            state.metrics.gauge("wlan.airtime_share", fn=wlan.utilization)
        nodes = getattr(runtime, "nodes", None)
        if nodes:
            for name in sorted(nodes):
                state.register_node(nodes[name])
    return state
