"""The perf ledger's one command.

Driver form (one workload, one JSON object as the last line)::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Set form (every workload, or the ones named, each in a fresh process)::

    python3 benchmarks/ledger/run.py --seed N [--workload W ...] [--traced [--spans]] [--out DIR]

Both check that each workload's output is correct and exit non-zero when
it is not. ``--seconds`` scales a fixed amount of work (see
``workloads.py``); it defaults to ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

if __name__ == "__main__" and "PYTHONHASHSEED" not in os.environ:
    # String hashing is salted per process, and dict-heavy code runs a few
    # percent faster or slower with the salt; pin it (before the imports
    # below are paid for), so that runs differ by the host and the change
    # under test only.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The command names no path outside the benchmark's directory, so the
# program's source is put on the path here rather than through PYTHONPATH.
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from spans import PACKAGES, SPAN_NAMES, Tracing, package_of  # noqa: E402
from workloads import WORKLOADS, Window  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}

#: Timed builds per run after one discarded warm-up build.
SETUP_REPEATS = 5
#: Workload-specific end-to-end results; 0 on a workload that has none.
EXTRA_NAMES = ("sustainable_rate_hz", "recovery_s", "overload_jobs_dropped")


def _timed_builds(workload: Any, seed: int) -> tuple[list[float], dict[str, Any]]:
    """Build ``1 + SETUP_REPEATS`` times; the last build is the one the
    window runs on. Returns the timed builds' reference seconds and that
    context."""
    times: list[float] = []
    ctx: dict[str, Any] | None = None
    for i in range(1 + SETUP_REPEATS):
        if ctx is not None:
            _close(ctx)
        ctx = None
        gc.collect()
        seconds, _wall, ctx = hostspeed.timed(workload.build, seed)
        if i:
            times.append(seconds)
    assert ctx is not None
    return times, ctx


def _close(ctx: dict[str, Any]) -> None:
    """Release what a build holds beyond memory (the real runtime's loop)."""
    if "close" in ctx:
        ctx["close"]()


def _segment_rates(counts: list[int], walls: list[float]) -> list[float]:
    # A window that never ran (its set-up check failed) has no wall time.
    return [count / wall if wall else 0.0 for count, wall in zip(counts, walls)]


#: Tail percentile of the flow latency. Simulated latencies repeat exactly,
#: so they carry p99. A wall-clock p99 of a 0.3 ms interval sits on the
#: interpreter's young-generation collections and on every burst of host
#: interference: run to run it spread 9-26 % on the reference host, p95
#: 9-22 %, p90 4 %. Wall latencies carry p90.
TAIL_EXACT, TAIL_WALL = 99, 90


def _flow_percentiles(window: Window) -> tuple[float, float, int]:
    """``(p50, tail, samples)`` of the window's flow latency in ms.

    Simulated latencies are pooled (exact, so rounded once here to their
    canonical form); wall latencies are the median of the per-segment
    percentiles, which keeps one slow segment from setting the tail.
    """
    samples = sum(len(segment) for segment in window.seg_latency_ms)
    if samples == 0:
        return 0.0, 0.0, 0
    if window.latency_exact:
        pooled = np.concatenate([np.asarray(s) for s in window.seg_latency_ms])
        p50, tail = np.percentile(pooled, [50, TAIL_EXACT])
        return round(float(p50), 6), round(float(tail), 6), samples
    per_segment = [
        np.percentile(np.asarray(s), [50, TAIL_WALL]) for s in window.seg_latency_ms if s
    ]
    return (
        float(statistics.median(p[0] for p in per_segment)),
        float(statistics.median(p[1] for p in per_segment)),
        samples,
    )


def measure(name: str, seed: int, seconds: float, tracing: Tracing | None = None) -> dict[str, Any]:
    """Set up, run one window of ``name`` and reduce it to a record."""
    workload = WORKLOADS[name]
    setup_times, ctx = _timed_builds(workload, seed)
    gc.collect()
    try:
        window: Window = workload.run(ctx, seconds, tracing)
    finally:
        _close(ctx)
    events = _segment_rates(window.seg_events, window.seg_wall)
    msgs = _segment_rates(window.seg_msgs, window.seg_wall)
    p50, tail, samples = _flow_percentiles(window)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "events_per_s": statistics.median(events),
        "msgs_per_s": statistics.median(msgs),
        "flow_p50_ms": p50,
        "flow_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    errors = list(window.errors)
    for metric, value in end_to_end.items():
        if not value > 0:
            errors.append(f"{metric} is {value!r}: nothing was measured")
    extra = {key: float(window.extra.get(key, 0.0)) for key in EXTRA_NAMES}
    extra["failed_share"] = (
        round(window.failed / window.attempted, 9) if window.attempted else 1.0
    )
    exact: dict[str, Any] = {**extra, **window.counters, "messages": sum(window.seg_msgs)}
    if window.latency_exact:
        exact.update(
            kernel_events=sum(window.seg_events), flow_p50_ms=p50, flow_tail_ms=tail
        )
    else:
        # Wall-clock backend: how many frames a fixed message count costs
        # is the program's business, so it is not held exact.
        del exact["net.inproc.frames"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "correct": not errors,
        "errors": errors,
        "attempted": max(1, window.attempted),
        "failed": window.failed,
        "end_to_end": end_to_end,
        "segments": {
            "setup_s": setup_times,
            "events_per_s": events,
            "msgs_per_s": msgs,
        },
        "extra": extra,
        "counters": dict(window.counters),
        "exact": exact,
        "flow_samples": samples,
        "window_wall_s": window.wall_s,
        # Share of nominal speed the host ran the window at: wall seconds
        # are ``window_wall_s / host_speed``.
        "host_speed": window.wall_s / window.raw_wall_s if window.raw_wall_s else 0.0,
        "work": sum(window.seg_events) if window.latency_exact else sum(window.seg_msgs),
    }


def measure_traced(
    name: str, seed: int, seconds: float, spans_file: Path | None = None
) -> dict[str, Any]:
    """Half-length untraced window, then the same window with spans.

    The untraced half gives the counters and the cost per unit of work
    that ``trace.overhead_ratio`` is taken against; both halves must
    deliver identical simulated results.
    """
    plain = measure(name, seed, seconds / 2.0)
    tracing = Tracing().install()
    try:
        traced = measure(name, seed, seconds / 2.0, tracing)
    finally:
        tracing.uninstall()
    errors = plain["errors"] + traced["errors"]
    if tracing.targets_missing:
        errors.append(f"span targets not found: {tracing.targets_missing}")
    if plain["exact"] != traced["exact"]:
        changed = sorted(k for k in plain["exact"] if plain["exact"][k] != traced["exact"].get(k))
        errors.append(f"tracing changed the program's results: {changed}")
    summary = tracing.summary()
    total_self = sum(span["self_s"] for span in summary.values())
    per_layer: dict[str, float] = {}
    for span in SPAN_NAMES:
        per_layer[f"{span}.calls"] = summary[span]["calls"]
        per_layer[f"{span}.self_s"] = summary[span]["self_s"]
    for package in PACKAGES:
        own = sum(s["self_s"] for span, s in summary.items() if package_of(span) == package)
        per_layer[f"share.{package}"] = own / total_self if total_self else 0.0
    per_layer.update(plain["counters"])
    per_layer.update(plain["extra"])
    per_unit_plain = plain["window_wall_s"] / plain["work"]
    per_unit_traced = traced["window_wall_s"] / traced["work"]
    per_layer["trace.overhead_ratio"] = per_unit_traced / per_unit_plain
    traced_wall = traced["window_wall_s"] / traced["host_speed"]
    per_layer["trace.unattributed_share"] = max(0.0, 1.0 - tracing.root_seconds() / traced_wall)
    per_layer["trace.spans"] = len(tracing)
    if spans_file is not None:
        tracing.write_jsonl(spans_file)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "correct": not errors,
        "errors": errors,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "exact": plain["exact"],
        "per_layer": per_layer,
    }


def environment() -> dict[str, Any]:
    from repro.bench.continuous import environment_fingerprint

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {**environment_fingerprint(), "nproc": os.cpu_count(), "commit": commit}


def _print_metrics(name: str, metrics: dict[str, float]) -> None:
    for metric, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:18s} {metric:34s} {shown:>14s} {UNITS[metric]}")


def run_one(args: argparse.Namespace) -> int:
    """Driver form: one workload in this process, result as the last line."""
    name = args.workload[0]
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        spans_file = out / f"trace_{name}.jsonl" if out is not None and args.spans else None
        record = measure_traced(name, args.seed, args.seconds, spans_file)
        metrics = record["per_layer"]
    else:
        record = measure(name, args.seed, args.seconds)
        metrics = record["end_to_end"]
    if out is not None:
        (out / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    _print_metrics(name, metrics)
    for error in record["errors"]:
        print(f"INCORRECT {name}: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    metric: {"value": value, "unit": UNITS[metric]}
                    for metric, value in metrics.items()
                },
            }
        )
    )
    return 0 if record["correct"] else 1


def run_set(args: argparse.Namespace) -> int:
    """Set form: each workload in a fresh subprocess, one set file."""
    names = args.workload or list(WORKLOADS)
    out = Path(args.out) if args.out else HERE / "out"
    out.mkdir(parents=True, exist_ok=True)
    started = perf_counter()
    records: dict[str, Any] = {}
    status = 0
    for name in names:
        completed = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(int(args.trace)), "--out", str(out),
                *(["--spans"] if args.spans else []),
            ],
            timeout=600,
        )
        status = status or completed.returncode
        record_path = out / f"{name}.json"
        if record_path.exists():  # written even when a check failed
            records[name] = json.loads(record_path.read_text())
            record_path.unlink()
    kind = "traced" if args.trace else "untraced"
    set_path = out / f"set_seed{args.seed}_{kind}.json"
    set_path.write_text(
        json.dumps(
            {
                "kind": kind, "seed": args.seed, "seconds": args.seconds,
                "env": environment(), "wall_s": perf_counter() - started,
                "workloads": records,
            },
            indent=1, sort_keys=True,
        )
        + "\n"
    )
    print(f"{kind} set of {len(records)} workloads in {perf_counter() - started:.1f} s -> {set_path}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(MANIFEST["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--traced", action="store_true", help="set form of --trace 1")
    parser.add_argument("--out", help="directory for set files and span traces")
    parser.add_argument(
        "--spans", action="store_true",
        help="traced runs also write <out>/trace_<workload>.jsonl (100-260 MB each)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    driver_form = args.trace is not None and args.workload and len(args.workload) == 1
    args.trace = bool(args.trace) or args.traced
    return run_one(args) if driver_form else run_set(args)


if __name__ == "__main__":
    sys.exit(main())
