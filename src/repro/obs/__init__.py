"""End-to-end observability: flow tracing, metrics, latency breakdown.

The layer's core parts (see ``docs/ARCHITECTURE.md``):

* :mod:`repro.obs.context` — :class:`FlowContext`/:class:`Span`, the
  causal references carried through the middleware in MQTT
  user-properties and on in-process flow records;
* :mod:`repro.obs.metrics` — the instrument registry scraped into the
  trace at sim-time intervals;
* :mod:`repro.obs.breakdown` — offline span-tree reconstruction,
  integrity checks, per-stage latency tables and Chrome export.

Built on top, and imported lazily to keep the core cheap:

* :mod:`repro.obs.slo` — the online SLO engine: deadline conformance,
  burn-rate alerting, drift watch, status publication;
* :mod:`repro.obs.export` — the Prometheus rendering of the metrics
  registry and the real backend's HTTP scrape endpoint.

Instrumentation is zero-cost-when-disabled: every site in the middleware
checks ``runtime.obs is not None`` before allocating anything, and
``runtime.obs`` only becomes non-None through
:func:`enable_observability`.
"""

from __future__ import annotations

from repro.obs.breakdown import (
    SpanRecord,
    StageBreakdown,
    canonical_span_lines,
    check_span_integrity,
    decompose_path,
    flow_latency_summary,
    format_stage_table,
    path_to_root,
    span_index,
    spans_from_tracer,
    stage_breakdown,
    to_chrome_trace,
)
from repro.obs.context import SPAN_EVENT, FlowContext, Span
from repro.obs.metrics import MetricsRegistry, metric_key, parse_metric_key
from repro.obs.state import METRICS_EVENT, SAMPLE_EVERY, ObsState, enable_observability

__all__ = [
    "FlowContext",
    "Span",
    "SPAN_EVENT",
    "METRICS_EVENT",
    "SAMPLE_EVERY",
    "MetricsRegistry",
    "metric_key",
    "parse_metric_key",
    "ObsState",
    "enable_observability",
    "SpanRecord",
    "StageBreakdown",
    "spans_from_tracer",
    "span_index",
    "check_span_integrity",
    "path_to_root",
    "decompose_path",
    "stage_breakdown",
    "flow_latency_summary",
    "format_stage_table",
    "to_chrome_trace",
    "canonical_span_lines",
]
