"""Offline span-tree analysis: integrity checks and latency breakdown.

This is the reporting half of the observability layer: it consumes
``obs.span`` records from a live :class:`~repro.sim.trace.Tracer` or a
JSONL dump, rebuilds the span trees, and produces

* **integrity checks** — orphan/cyclic spans, hop monotonicity, interval
  sanity (used by the property tests and the golden-trace suite);
* **per-stage latency tables** — avg/max/percentile columns in the shape
  of the paper's Tables II/III, with each stage's *own* service time
  separated from the *gap* (queueing + network) before it;
* **Chrome trace_event export** — load a dump into ``chrome://tracing``
  / Perfetto for visual inspection.

Everything operates on plain records; nothing here imports the live
middleware, so dumps from any run (chaos included) can be analyzed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.obs.context import SPAN_EVENT
from repro.sim.trace import TraceRecord, Tracer
from repro.util.stats import LatencyRecorder

__all__ = [
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


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as reconstructed from the trace."""

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    node: str
    incarnation: int
    hop: int
    start: float
    end: float
    links: tuple[str, ...] = ()
    fields: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def stage(self) -> str:
        """Preferred stage label: the task id when the span has one."""
        task = self.fields.get("task")
        return str(task) if task else self.name


_CORE_KEYS = {"trace", "span", "parent", "name", "hop", "inc", "start", "links"}


def _span_from_record(record: TraceRecord) -> SpanRecord:
    fields = record.fields
    return SpanRecord(
        trace_id=str(fields["trace"]),
        span_id=str(fields["span"]),
        parent_id=str(fields.get("parent", "")),
        name=str(fields["name"]),
        node=record.source,
        incarnation=int(fields.get("inc", 0)),
        hop=int(fields.get("hop", 0)),
        start=float(fields["start"]),
        end=record.time,
        links=tuple(str(link) for link in fields.get("links", ())),
        fields={k: v for k, v in fields.items() if k not in _CORE_KEYS},
    )


def spans_from_tracer(tracer: Tracer) -> list[SpanRecord]:
    """All finished spans, in emission order."""
    return [_span_from_record(r) for r in tracer if r.event == SPAN_EVENT]


def span_index(spans: Iterable[SpanRecord]) -> dict[str, SpanRecord]:
    return {span.span_id: span for span in spans}


# ---------------------------------------------------------------------------
# Integrity
# ---------------------------------------------------------------------------


def check_span_integrity(spans: list[SpanRecord]) -> list[str]:
    """Structural violations in a span set (empty list = healthy).

    Checked: unique ids; every referenced parent/link exists; roots are
    hop 0; children sit exactly one hop below their parent in the same
    trace; intervals are well-formed and causally ordered (a child cannot
    start before its parent started); parent chains terminate (no cycles).
    """
    problems: list[str] = []
    index: dict[str, SpanRecord] = {}
    for span in spans:
        if span.span_id in index:
            problems.append(f"duplicate span id {span.span_id}")
        index[span.span_id] = span
    for span in spans:
        if span.end < span.start:
            problems.append(f"{span.span_id}: end {span.end} before start {span.start}")
        for link in span.links:
            if link not in index:
                problems.append(f"{span.span_id}: dangling link {link}")
        if not span.parent_id:
            if span.hop != 0:
                problems.append(f"root {span.span_id} has hop {span.hop}")
            continue
        parent = index.get(span.parent_id)
        if parent is None:
            problems.append(f"orphan span {span.span_id} (parent {span.parent_id})")
            continue
        if parent.trace_id != span.trace_id:
            problems.append(
                f"{span.span_id}: trace {span.trace_id} != parent's {parent.trace_id}"
            )
        if span.hop != parent.hop + 1:
            problems.append(
                f"{span.span_id}: hop {span.hop} not parent hop {parent.hop} + 1"
            )
        if span.start < parent.start:
            problems.append(
                f"{span.span_id}: starts {span.start} before parent {parent.start}"
            )
    for span in spans:
        seen = {span.span_id}
        cursor = span
        while cursor.parent_id:
            cursor = index.get(cursor.parent_id)  # type: ignore[assignment]
            if cursor is None:
                break
            if cursor.span_id in seen:
                problems.append(f"cycle through {span.span_id}")
                break
            seen.add(cursor.span_id)
    return problems


def path_to_root(
    span: SpanRecord, index: dict[str, SpanRecord]
) -> list[SpanRecord] | None:
    """Root-first parent chain ending at ``span``; None if truncated."""
    chain = [span]
    cursor = span
    while cursor.parent_id:
        parent = index.get(cursor.parent_id)
        if parent is None:
            return None
        chain.append(parent)
        cursor = parent
    chain.reverse()
    return chain


def decompose_path(
    span: SpanRecord, index: dict[str, SpanRecord]
) -> list[tuple[str, float, float]] | None:
    """Per-stage ``(stage, gap_before, own_duration)`` along the root path.

    The telescoping identity ``leaf.end - root.start ==
    sum(gaps) + sum(durations)`` holds exactly — queueing and network
    time between hops is precisely the gap between a parent's end and
    its child's start.
    """
    chain = path_to_root(span, index)
    if chain is None:
        return None
    out: list[tuple[str, float, float]] = []
    previous_end = chain[0].start
    for hop in chain:
        out.append((hop.stage, hop.start - previous_end, hop.duration))
        previous_end = hop.end
    return out


# ---------------------------------------------------------------------------
# Latency breakdown
# ---------------------------------------------------------------------------


@dataclass
class StageBreakdown:
    """Per-stage service/gap distributions plus end-to-end latencies.

    All recorders hold **milliseconds** (the paper's unit).
    """

    stages: dict[str, LatencyRecorder] = field(default_factory=dict)
    gaps: dict[str, LatencyRecorder] = field(default_factory=dict)
    end_to_end: dict[str, LatencyRecorder] = field(default_factory=dict)
    spans: int = 0
    traces: int = 0
    truncated: int = 0

    def _recorder(self, table: dict[str, LatencyRecorder], key: str) -> LatencyRecorder:
        recorder = table.get(key)
        if recorder is None:
            recorder = table[key] = LatencyRecorder(key)
        return recorder


def stage_breakdown(
    spans: list[SpanRecord],
    stage_of: Callable[[SpanRecord], str] | None = None,
    leaves: Iterable[str] | None = None,
) -> StageBreakdown:
    """Aggregate a span set into per-stage and end-to-end distributions.

    ``stage_of`` overrides the stage label (default: task id, else span
    name). ``leaves`` restricts end-to-end rows to the named stages; by
    default every span with no children is a leaf (its path's total
    latency is attributed to its stage).
    """
    label = stage_of if stage_of is not None else (lambda s: s.stage)
    breakdown = StageBreakdown(spans=len(spans))
    index = span_index(spans)
    has_children = {span.parent_id for span in spans if span.parent_id}
    breakdown.traces = len({span.trace_id for span in spans})
    wanted = set(leaves) if leaves is not None else None
    for span in spans:
        stage = label(span)
        breakdown._recorder(breakdown.stages, stage).add(span.duration * 1000.0)
        if span.parent_id:
            parent = index.get(span.parent_id)
            if parent is not None:
                breakdown._recorder(breakdown.gaps, stage).add(
                    (span.start - parent.end) * 1000.0
                )
        is_leaf = span.span_id not in has_children
        if wanted is not None:
            is_leaf = stage in wanted
        if is_leaf:
            chain = path_to_root(span, index)
            if chain is None:
                breakdown.truncated += 1
                continue
            breakdown._recorder(breakdown.end_to_end, stage).add(
                (span.end - chain[0].start) * 1000.0
            )
    return breakdown


def flow_latency_summary(breakdown: StageBreakdown) -> dict[str, dict[str, float]]:
    """Per-flow end-to-end latency summary, keyed by leaf stage.

    Each entry carries ``count`` and the ``p50/p95/p99/max`` latency in
    milliseconds. This is the measured half of the latency-bound
    soundness gate: ``repro lint --deadline --validate`` compares each flow's
    observed max against the static worst-case bound (RCP243) and its
    p99 against the bound's tightness (RCP244).
    """
    summary: dict[str, dict[str, float]] = {}
    for stage in sorted(breakdown.end_to_end):
        recorder = breakdown.end_to_end[stage]
        summary[stage] = {
            "count": recorder.count,
            "p50_ms": recorder.percentile(50),
            "p95_ms": recorder.percentile(95),
            "p99_ms": recorder.percentile(99),
            "max_ms": recorder.maximum,
        }
    return summary


def format_stage_table(breakdown: StageBreakdown, title: str = "") -> str:
    """Render the per-stage table (avg/max columns like Tables II/III).

    One row per stage: the stage's own service time and the queue/network
    gap that preceded it, then end-to-end rows for each leaf stage.
    """
    lines: list[str] = []
    if title:
        lines.append(title)
    header = (
        f"{'Stage':<24} | {'N':>6} | {'Avg(ms)':>9} | {'p95(ms)':>9} | "
        f"{'Max(ms)':>9} | {'Gap avg(ms)':>11}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for stage in sorted(breakdown.stages):
        own = breakdown.stages[stage]
        gap = breakdown.gaps.get(stage)
        gap_avg = f"{gap.average:>11.3f}" if gap is not None else f"{'-':>11}"
        lines.append(
            f"{stage:<24} | {own.count:>6} | {own.average:>9.3f} | "
            f"{own.percentile(95):>9.3f} | {own.maximum:>9.3f} | {gap_avg}"
        )
    if breakdown.end_to_end:
        lines.append("")
        lines.append(
            f"{'End-to-end (sensing ->)':<24} | {'N':>6} | {'Avg(ms)':>9} | "
            f"{'p95(ms)':>9} | {'Max(ms)':>9}"
        )
        for stage in sorted(breakdown.end_to_end):
            rec = breakdown.end_to_end[stage]
            lines.append(
                f"{stage:<24} | {rec.count:>6} | {rec.average:>9.3f} | "
                f"{rec.percentile(95):>9.3f} | {rec.maximum:>9.3f}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Chrome trace_event export
# ---------------------------------------------------------------------------


def to_chrome_trace(spans: list[SpanRecord]) -> dict[str, Any]:
    """Chrome ``trace_event`` JSON (load in chrome://tracing / Perfetto).

    Nodes map to process ids, traces to thread ids, both assigned in
    sorted order so the export is deterministic. Times are microseconds.
    """
    nodes = sorted({span.node for span in spans})
    traces = sorted({span.trace_id for span in spans})
    pid_of = {node: i + 1 for i, node in enumerate(nodes)}
    tid_of = {trace: i + 1 for i, trace in enumerate(traces)}
    events: list[dict[str, Any]] = []
    for node in nodes:
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid_of[node],
                "tid": 0,
                "args": {"name": node},
            }
        )
    for span in spans:
        args = {
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "hop": span.hop,
            "inc": span.incarnation,
        }
        args.update({k: v for k, v in sorted(span.fields.items())})
        base = {
            "name": span.name,
            "pid": pid_of[span.node],
            "tid": tid_of[span.trace_id],
            "ts": round(span.start * 1e6, 3),
            "args": args,
        }
        if span.duration > 0:
            events.append({**base, "ph": "X", "dur": round(span.duration * 1e6, 3)})
        else:
            events.append({**base, "ph": "i", "s": "t"})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Canonical digests (golden-trace tests)
# ---------------------------------------------------------------------------


def canonical_span_lines(spans: list[SpanRecord]) -> list[str]:
    """Stable one-line-per-span rendering for digesting span trees.

    Sorted by (trace, start, span id) so the digest reflects the tree,
    not emission interleaving; floats use ``repr`` (exact and stable
    across CPython 3.10-3.12).
    """
    ordered = sorted(spans, key=lambda s: (s.trace_id, s.start, s.span_id))
    return [
        f"{s.trace_id}|{s.span_id}|{s.parent_id}|{s.name}|{s.node}|{s.incarnation}"
        f"|{s.hop}|{s.start!r}|{s.end!r}|{','.join(s.links)}"
        f"|{sorted(s.fields.items())!r}"
        for s in ordered
    ]
