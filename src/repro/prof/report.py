"""Profile exports: text tree, folded stacks, Chrome counters, digest.

All exports are pure functions of a :class:`~repro.prof.profiler.Profiler`
(or, for the counter track, of a trace carrying its ``prof.sample``
records), iterate in sorted order and round deterministically — the same
run always serializes byte-identically, which is what lets the pipeline
digest tests pin profile digests across commits.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import parse_metric_key
from repro.prof.profiler import PROF_SAMPLE_EVENT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.prof.profiler import Profiler
    from repro.sim.trace import Tracer

__all__ = [
    "chrome_counter_events",
    "folded_stacks",
    "format_profile_tree",
    "profile_digest",
    "profile_to_dict",
    "utilization_rows",
]


def _by_node(
    profiler: "Profiler",
) -> dict[str, dict[str, list[tuple[str, float, int]]]]:
    """Regroup the flat busy table: node -> domain -> [(op, busy, count)]."""
    tree: dict[str, dict[str, list[tuple[str, float, int]]]] = {}
    for (node, domain, op), (busy, count) in sorted(profiler.busy.items()):
        tree.setdefault(node, {}).setdefault(domain, []).append((op, busy, count))
    return tree


def profile_to_dict(profiler: "Profiler") -> dict[str, Any]:
    """JSON-ready profile: busy tree, utilizations, kernel event counts."""
    now = profiler.runtime.now
    nodes: dict[str, Any] = {}
    for node, domains in _by_node(profiler).items():
        entry: dict[str, Any] = {}
        for domain, ops in domains.items():
            entry[domain] = {
                op: {"busy_s": round(busy, 9), "count": count}
                for op, busy, count in sorted(ops)
            }
        if node in profiler.cpu_nodes():
            entry["cpu_utilization"] = round(profiler.cpu_utilization(node), 9)
        nodes[node] = entry
    return {
        "elapsed_s": round(now, 9),
        "nodes": nodes,
        "wlan_utilization": round(profiler.wlan_utilization(), 9),
        "kernel_events": dict(sorted(profiler.event_counts.items())),
        "events_profiled": profiler.events_profiled,
        "samples": profiler.samples,
    }


def folded_stacks(profiler: "Profiler") -> str:
    """Folded-stack lines (``node;domain;op <microseconds>``), sorted.

    Feed to ``flamegraph.pl`` or speedscope for a busy-time flamegraph of
    where the virtual milliseconds went.
    """
    lines = []
    for (node, domain, op), (busy, _count) in sorted(profiler.busy.items()):
        lines.append(f"{node};{domain};{op} {int(round(busy * 1e6))}")
    return "\n".join(lines) + ("\n" if lines else "")


def profile_digest(profiler: "Profiler") -> str:
    """SHA-256 over the folded-stack rendering (regression fingerprint)."""
    return hashlib.sha256(folded_stacks(profiler).encode()).hexdigest()


def format_profile_tree(profiler: "Profiler", title: str = "") -> str:
    """The "where did the millisecond go" tree.

    One block per node: total CPU busy time with utilization over the
    whole run, then per-operation rows sorted by descending busy time;
    WLAN airtime per sending station; a kernel section with the
    busiest event handlers.
    """
    now = profiler.runtime.now
    lines: list[str] = []
    if title:
        lines += [title, "=" * len(title)]
    lines.append(f"profile over {now:.3f} s of virtual time")
    tree = _by_node(profiler)
    for node in sorted(tree):
        domains = tree[node]
        cpu_ops = domains.get("cpu", [])
        cpu_busy = sum(busy for _op, busy, _count in cpu_ops)
        header = f"\n{node}"
        if cpu_ops:
            util = profiler.cpu_utilization(node)
            header += f" — cpu busy {cpu_busy * 1e3:.3f} ms ({util * 100:.1f}% util)"
        lines.append(header)
        for op, busy, count in sorted(cpu_ops, key=lambda row: (-row[1], row[0])):
            share = busy / cpu_busy if cpu_busy > 0 else 0.0
            lines.append(
                f"  cpu  {op:<18} {busy * 1e3:>10.3f} ms  {share * 100:>5.1f}%"
                f"  {count:>6}x"
            )
        for op, busy, count in sorted(domains.get("wlan", [])):
            lines.append(
                f"  wlan {op:<18} {busy * 1e3:>10.3f} ms         {count:>6} frames"
            )
    lines.append(
        f"\nwlan channel airtime: {profiler.wlan_utilization() * 100:.1f}% of elapsed"
    )
    counts = profiler.event_counts
    if counts:
        lines.append(f"\nkernel: {profiler.events_profiled} events executed")
        busiest = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:12]
        for name, count in busiest:
            lines.append(f"  {count:>8}x  {name}")
    return "\n".join(lines)


def utilization_rows(tracer: "Tracer") -> list[dict[str, Any]]:
    """Flatten ``prof.sample`` records into rows for tables and export.

    Each row is ``{"t": time, "series": key, "value": v, "node": ...}``
    with the node label recovered via :func:`parse_metric_key`.
    """
    rows: list[dict[str, Any]] = []
    for record in tracer.select(event=PROF_SAMPLE_EVENT):
        for key, value in sorted(record["u"].items()):
            name, labels = parse_metric_key(key)
            rows.append(
                {
                    "t": record.time,
                    "series": name,
                    "value": value,
                    **labels,
                }
            )
    return rows


def chrome_counter_events(tracer: "Tracer") -> list[dict[str, Any]]:
    """Chrome ``trace_event`` counter track from the sampled timelines.

    Pairs with :func:`repro.obs.breakdown.to_chrome_trace`: merge the two
    event lists into one ``traceEvents`` array and the utilization
    counters render above the span rows in chrome://tracing / Perfetto.
    """
    events: list[dict[str, Any]] = []
    for row in utilization_rows(tracer):
        name = row["series"]
        node = row.get("node")
        track = f"{name}{{{node}}}" if node else name
        events.append(
            {
                "ph": "C",
                "pid": 0,
                "name": track,
                "ts": round(row["t"] * 1e6, 3),
                "args": {"value": row["value"]},
            }
        )
    return events
