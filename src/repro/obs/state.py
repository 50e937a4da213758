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

Sensor traces are head-sampled (Dapper's scheme): a sensor opens a
root span for its sample of ordinal ``n`` only when ``n % sample_every ==
0`` (:meth:`ObsState.sampled`), a pure function of the ordinal that draws
no RNG. An unsampled record carries no context, so no span opens for it
anywhere and no ``obs`` header rides with it; per-record metrics still
see it. ``sample_every=1`` traces every record.

Per-event work is done for a consumer that exists: ids are always drawn
and the scrape timer always fires (both are part of the simulated
schedule), but a span's record dict and the registry snapshot are built
only when :meth:`Tracer.wants <repro.sim.trace.Tracer.wants>` them —
trace storage on, or a tap on that event.

Determinism contract: with the same seed and topology, two runs produce
byte-identical trace dumps — nothing here reads wall-clock, ``random`` or
``uuid``, and all iteration over registries is sorted.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.obs.context import SPAN_EVENT, FlowContext, Span
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime
    from repro.runtime.node import Node

__all__ = ["ObsState", "enable_observability", "METRICS_EVENT", "SAMPLE_EVERY"]

#: Trace event name under which metric scrapes are recorded.
METRICS_EVENT = "obs.metrics"

#: Default head-sampling stride: one sensor trace in this many is traced.
#: The smallest power of two at which observability alone costs at most
#: 10 % of fig5's throughput (``docs/ARCHITECTURE.md``, "What the
#: instruments cost").
SAMPLE_EVERY = 8

#: Keys :meth:`ObsState.finish` writes itself; a span field may not reuse one.
_RESERVED = frozenset({"trace", "span", "parent", "name", "hop", "inc", "start"})

#: Builds a :class:`FlowContext` in C, without the namedtuple's ``__new__``.
_new_context = partial(tuple.__new__, FlowContext)


class ObsState:
    """Per-runtime observability: span factory + metrics registry."""

    def __init__(
        self,
        runtime: "Runtime",
        scrape_interval_s: float = 1.0,
        metrics: bool = True,
        sample_every: int = SAMPLE_EVERY,
    ) -> None:
        if sample_every < 1:
            raise ConfigurationError(f"sample_every must be >= 1, not {sample_every}")
        self.runtime = runtime
        self.sample_every = sample_every
        self.metrics: MetricsRegistry | None = MetricsRegistry() if metrics else None
        self.scrape_interval_s = scrape_interval_s
        self.spans_emitted = 0
        self.scrapes = 0
        self._scraping = False
        if self.metrics is not None and scrape_interval_s > 0:
            self._scraping = True
            runtime.call_later(scrape_interval_s, self._scrape)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def sampled(self, ordinal: int) -> bool:
        """Whether a sensor's sample number ``ordinal`` opens a trace."""
        return ordinal % self.sample_every == 0

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
        return Span(
            self._context(parent, fields),
            name,
            node.name,
            node._incarnation._value if self.runtime.san is None else node.incarnation,
            self.runtime.now if start is None else start,
            tuple(links),
            fields,
        )

    def _context(self, parent: FlowContext | None, fields: dict) -> FlowContext:
        """A new span's context: its fields checked, then its id drawn, then
        (for a root) its trace's — a refused span draws nothing."""
        if fields and not _RESERVED.isdisjoint(fields):
            raise TypeError(f"reserved span field in {sorted(fields)}")
        ids = self.runtime.ids
        span_id = f"sp-{ids.next_int('obs.span')}"
        if parent is None:
            return _new_context((f"tr-{ids.next_int('obs.trace')}", span_id, "", 0))
        return _new_context((parent.trace_id, span_id, parent.span_id, parent.hop + 1))

    def finish(self, span: Span, **fields: Any) -> FlowContext:
        """Close ``span`` now and return its context.

        The ``obs.span`` trace record is built only when the tracer
        stores it or a tap wants it.
        """
        if fields:
            if not _RESERVED.isdisjoint(fields):  # before the span is counted
                raise TypeError(f"reserved span field in {sorted(fields)}")
            span.fields.update(fields)
        return self._close(
            span.ctx, span.name, span.node, span.incarnation, span.start, span.links, span.fields
        )

    def _close(
        self,
        ctx: FlowContext,
        name: str,
        node: str,
        incarnation: int,
        start: float,
        links: tuple[str, ...],
        fields: dict[str, Any],
    ) -> FlowContext:
        self.spans_emitted += 1
        tracer = self.runtime.tracer
        if tracer.wants(SPAN_EVENT):
            record = {
                "trace": ctx.trace_id,
                "span": ctx.span_id,
                "parent": ctx.parent_id,
                "name": name,
                "hop": ctx.hop,
                "inc": incarnation,
                "start": start,
                **fields,
            }
            if links:
                record["links"] = list(links)
            tracer.emit_fields(self.runtime.now, node, SPAN_EVENT, record)
        return ctx

    def point(
        self,
        name: str,
        node: "Node",
        parent: FlowContext | None = None,
        links: tuple[str, ...] = (),
        **fields: Any,
    ) -> FlowContext:
        """Zero-duration span (a causal hop without a measured interval):
        ``finish(start_span(...))`` without building the :class:`Span`."""
        ctx = self._context(parent, fields)
        inc = node._incarnation._value if self.runtime.san is None else node.incarnation
        return self._close(ctx, name, node.name, inc, self.runtime.now, links, fields)

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
        registry.gauge(  # busy time per started job, completed or in service
            "node.cpu.service_mean_s",
            fn=lambda: cpu.stats.busy_time
            / max(cpu.stats.jobs_completed + cpu.busy_servers, 1),
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
    sample_every: int = SAMPLE_EVERY,
) -> ObsState:
    """Install observability on ``runtime`` (idempotent), tracing one
    sensor sample in ``sample_every``.

    Returns the installed :class:`ObsState`.
    """
    if runtime.obs is not None:
        return runtime.obs
    state = ObsState(
        runtime, scrape_interval_s=scrape_interval_s, metrics=metrics, sample_every=sample_every
    )
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
