"""Compare two ledger sets: ``python3 benchmarks/ledger/compare.py A.json B.json``.

``A`` is the baseline (the parent commit), ``B`` the candidate. Every
(end-to-end metric, workload) pair gets one verdict:

* ``better`` / ``worse`` — the medians differ by more than the metric's
  bound in ``BENCHMARK.json``, in that direction;
* ``same`` — they differ by less;
* ``unresolved`` — a run's own segment spread (first to third quartile of
  its segments, as a share of their median) is wider than the bound and
  the two runs' quartile ranges overlap, so the pair cannot be told apart.

Simulated-time results (``flow_*`` on ``sim_*``, every counter, the
workload-specific results) are pure functions of (workload, seed, length):
with both sets at one seed and length they are compared exactly, as
canonical JSON, and any difference is ``better``/``worse`` (or
``changed`` for a counter that has no direction). Exits non-zero on any
``worse``, any ``changed`` and on a higher ``failed_share``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Iterator

MANIFEST = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in MANIFEST["end_to_end"]}
DIRECTION = {m["name"]: m["better"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}

__all__ = ["compare_sets", "verdict", "main"]


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _direction(a: float, b: float, better: str) -> str:
    if a == b:
        return "same"
    return "better" if (b < a) == (better == "lower") else "worse"


def verdict(
    a: float, b: float, better: str, bound: float,
    a_segments: list[float] | None = None, b_segments: list[float] | None = None,
) -> str:
    """Verdict on candidate ``b`` against baseline ``a`` (see module doc)."""
    if a_segments and b_segments and len(a_segments) > 1 and len(b_segments) > 1:
        a_lo, _, a_hi = statistics.quantiles(a_segments, n=4)
        b_lo, _, b_hi = statistics.quantiles(b_segments, n=4)
        wide = (
            (a_hi - a_lo) / statistics.median(a_segments) > bound
            or (b_hi - b_lo) / statistics.median(b_segments) > bound
        )
        if wide:
            if a_lo <= b_hi and b_lo <= a_hi:
                return "unresolved"
            return _direction(a, b, better)
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare_sets(a: dict[str, Any], b: dict[str, Any]) -> Iterator[tuple[str, str, str, str]]:
    """Yield ``(workload, metric, verdict, detail)`` for every pair the
    two untraced sets share."""
    exact_comparable = (a["seed"], a["seconds"]) == (b["seed"], b["seconds"])
    for name in MANIFEST["workloads"]:
        workload = name["name"]
        ra, rb = a["workloads"].get(workload), b["workloads"].get(workload)
        if ra is None or rb is None:
            continue
        for metric, spec in END_TO_END.items():
            va, vb = ra["end_to_end"][metric], rb["end_to_end"][metric]
            detail = f"{va:.6g} -> {vb:.6g} {spec['unit']}"
            if exact_comparable and metric in ra["exact"] and metric in rb["exact"]:
                yield workload, metric, _direction(va, vb, spec["better"]), detail + " (exact)"
                continue
            yield workload, metric, verdict(
                va, vb, spec["better"], spec["bound"],
                ra["segments"].get(metric), rb["segments"].get(metric),
            ), detail
        if not exact_comparable:
            # Another seed is other work, but failing more of it is still worse.
            va, vb = ra["exact"]["failed_share"], rb["exact"]["failed_share"]
            if vb > va:
                yield workload, "failed_share", "worse", f"{va} -> {vb}"
            continue
        for key in sorted(set(ra["exact"]) | set(rb["exact"])):
            if key in END_TO_END:
                continue
            va, vb = ra["exact"].get(key), rb["exact"].get(key)
            if _canonical(va) == _canonical(vb):
                continue
            if key in DIRECTION and va is not None and vb is not None:
                result = _direction(va, vb, DIRECTION[key])
            else:
                result = "changed"
            yield workload, key, result, f"{va} -> {vb} (exact)"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n", 1)[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    if a["kind"] != "untraced" or b["kind"] != "untraced":
        print("end-to-end metrics are compared from untraced sets only", file=sys.stderr)
        return 2
    if (a["seed"], a["seconds"]) != (b["seed"], b["seconds"]):
        print("note: seeds or lengths differ; simulated-time results are compared by bound")
    failed = False
    for workload, metric, result, detail in compare_sets(a, b):
        print(f"{result:10s} {metric:32s} {workload:18s} {detail}")
        failed = failed or result in ("worse", "changed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
