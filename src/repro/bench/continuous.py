"""Continuous benchmarking: schema-versioned records and a regression gate.

A *bench record* (``BENCH_<name>.json``) captures one named benchmark
run's ``sim`` results — everything derived from virtual time: latencies,
event and trace counts, utilizations, the profile digest. These are pure
functions of (scenario, seed) and the gate compares them **byte-exact**
(via canonical sorted-key JSON); any drift is a real behaviour change.
Wall-clock numbers live in the perf ledger (``benchmarks/ledger``) and
nowhere else.

``repro bench <names> --compare <baseline-dir>`` runs the named
benchmarks, writes fresh records, and exits nonzero on any sim mismatch
— that is the CI gate. Refreshing the committed baseline is
``repro bench <names> --out benchmarks/baselines`` (review the diff like
any other golden file).
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchRecord",
    "BenchComparison",
    "BENCH_RUNNERS",
    "compare_bench",
    "environment_fingerprint",
    "load_bench",
    "run_bench",
    "write_bench",
]

#: Bump when the record layout changes; the gate refuses to compare
#: records with differing schema versions.
#: v2: fig5/failover records carry ``sim.op_busy`` (per-op CPU busy
#: accounting) feeding the cost-model drift gate (RCP230).
#: v3: records carry per-flow end-to-end latency summaries
#: (``sim.flows`` / per-rate ``flows``: count + p50/p95/p99/max ms)
#: feeding the latency-bound soundness gate (RCP243/RCP244).
#: v4: the ``wall`` half and the ``env`` fingerprint are gone; a record
#: is its ``sim`` results.
BENCH_SCHEMA_VERSION = 4


def environment_fingerprint() -> dict[str, str]:
    """The host properties that make wall-clock numbers comparable
    (stamped on the perf ledger's set files; no bench record carries it)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


@dataclass
class BenchRecord:
    """One benchmark run, ready to serialize as ``BENCH_<name>.json``."""

    name: str
    schema_version: int = BENCH_SCHEMA_VERSION
    #: Virtual-time results — compared byte-exact.
    sim: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "schema_version": self.schema_version,
            "sim": self.sim,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BenchRecord":
        return cls(
            name=data["name"],
            schema_version=data["schema_version"],
            sim=data.get("sim", {}),
        )


def canonical_sim_json(record: BenchRecord) -> str:
    """The byte-exact comparison form of the record's sim half."""
    return json.dumps(record.sim, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Benchmark runners
# ---------------------------------------------------------------------------
# Each runner executes one named scenario with profiling attached and
# returns a BenchRecord. Sim metrics are rounded once, here, so the
# serialized record is the canonical form.


def _op_busy(profiler: Any) -> dict[str, dict[str, Any]]:
    """Node-summed per-op CPU busy: ``{op: {"busy_s", "count"}}``.

    This is the half of the profile the static drift gate
    (:func:`repro.lint.dataflow.check_cost_drift`) replays against the
    calibrated cost model, so it rounds exactly once, here.
    """
    return {
        op: {"busy_s": round(seconds, 9), "count": count}
        for op, (seconds, count) in profiler.cpu_busy_by_op().items()
    }


def _round_flows(
    flows: dict[str, dict[str, float]]
) -> dict[str, dict[str, Any]]:
    """Canonical serialized form of a per-flow latency summary."""
    return {
        stage: {
            key: int(value) if key == "count" else round(float(value), 6)
            for key, value in sorted(summary.items())
        }
        for stage, summary in sorted(flows.items())
    }


def _recorder_summary(recorder: Any) -> dict[str, float]:
    """Flow-summary shape from a harness :class:`LatencyRecorder` (ms)."""
    return {
        "count": recorder.count,
        "p50_ms": recorder.percentile(50),
        "p95_ms": recorder.percentile(95),
        "p99_ms": recorder.percentile(99),
        "max_ms": recorder.maximum,
    }


def _tracer_flows(tracer: Any) -> dict[str, dict[str, Any]]:
    """Per-flow latency summaries from an observed run's tracer.

    The observed companion run exists purely to measure flow latencies:
    observation piggybacks span context on records, so its event counts
    differ from the unobserved run that produces every other sim metric.
    Both runs are pure functions of (scenario, seed), so the summaries
    are still compared byte-exact.
    """
    from repro.obs.breakdown import (
        flow_latency_summary,
        spans_from_tracer,
        stage_breakdown,
    )

    breakdown = stage_breakdown(spans_from_tracer(tracer))
    return _round_flows(flow_latency_summary(breakdown))


def _bench_fig5() -> BenchRecord:
    """The Fig. 5 watching experiment, profiled under the Pi calibration."""
    from repro.bench.scenarios import FIG5
    from repro.prof import profile_digest
    from repro.scenario import run

    outcome = run(FIG5, profile=True)
    profiler = outcome.runtime.prof
    record = BenchRecord(name="fig5")
    record.sim = {
        "seed": outcome.seed,
        "duration_s": outcome.duration_s,
        "trace_records": len(outcome.runtime.tracer),
        "events_executed": profiler.events_profiled,
        "profile_digest": profile_digest(profiler),
        "cpu_utilization": {
            node: round(profiler.cpu_utilization(node), 9)
            for node in profiler.cpu_nodes()
        },
        "wlan_utilization": round(profiler.wlan_utilization(), 9),
        "op_busy": _op_busy(profiler),
        "flows": _tracer_flows(run(FIG5, observe=True).runtime.tracer),
    }
    return record


def _bench_saturation() -> BenchRecord:
    """The Tables II/III rate sweep at the saturation-relevant rates."""
    from repro.bench.harness import run_paper_experiment

    rates = (5.0, 20.0, 40.0)
    record = BenchRecord(name="saturation")
    rows: dict[str, Any] = {}
    for rate in rates:
        result = run_paper_experiment(
            rate, duration_s=2.5, seed=1, profile=True
        )
        rows[f"{rate:g}hz"] = {
            "train_avg_ms": round(result.training.average, 6),
            "train_max_ms": round(result.training.maximum, 6),
            "predict_avg_ms": round(result.predicting.average, 6),
            "predict_max_ms": round(result.predicting.maximum, 6),
            "samples_sensed": result.samples_sensed,
            "cpu_utilization": dict(result.cpu_utilization),
            "wlan_utilization": round(result.wlan_utilization, 9),
            "flows": _round_flows(
                {
                    "train": _recorder_summary(result.training),
                    "predict": _recorder_summary(result.predicting),
                }
            ),
        }
    record.sim = {"seed": 1, "duration_s": 2.5, "rates": rows}
    return record


def _bench_failover() -> BenchRecord:
    """The self-healing path: crash -> failover -> rejoin -> live fail-back.

    Pins the recovery latencies and the QoS 1 / ML delivery accounting of
    the ``failover`` chaos scenario, so a regression in detection speed,
    handoff duration, or exactly-once bookkeeping fails the bench gate
    even when every invariant still technically passes.
    """
    from repro.chaos.scenarios import run_scenario

    result = run_scenario("failover", seed=0, profile=True)
    metrics = result.report.metrics
    tracer = result.tracer
    migrations_done = len(tracer.select(event="migrate.done"))
    failover_moves = len(tracer.select(event="mgmt.failover_moved"))
    record = BenchRecord(name="failover")
    profiler = result.profiler
    record.sim = {
        "seed": 0,
        "duration_s": result.duration_s,
        "trace_records": result.trace_records,
        "trace_digest": result.trace_digest,
        "invariants_ok": result.report.ok,
        "recovery_s": {
            "node_crash": round(metrics.get("recovery_s:node_crash", 0.0), 6),
            "node_restart": round(metrics.get("recovery_s:node_restart", 0.0), 6),
        },
        "qos1": {
            "forwarded": int(metrics.get("qos1_forwarded", 0)),
            "delivered": int(metrics.get("qos1_delivered", 0)),
            "dropped_explained": int(metrics.get("qos1_dropped_explained", 0)),
            "unaccounted": int(metrics.get("qos1_unaccounted", 0)),
            "duplicate_deliveries": int(
                metrics.get("qos1_duplicate_deliveries", 0)
            ),
        },
        "ml_records": int(metrics.get("ml_records", 0)),
        "ml_cross_instance_duplicates": int(
            metrics.get("ml_cross_instance_duplicates", 0)
        ),
        "failover_moves": failover_moves,
        "migrations_completed": migrations_done,
        "op_busy": _op_busy(profiler),
        "flows": _tracer_flows(
            run_scenario("failover", seed=0, observe=True).tracer
        ),
    }
    return record


#: name -> runner, the benchmarks `repro bench` knows how to run.
BENCH_RUNNERS: dict[str, Callable[[], BenchRecord]] = {
    "fig5": _bench_fig5,
    "failover": _bench_failover,
    "saturation": _bench_saturation,
}


def run_bench(name: str) -> BenchRecord:
    """Execute one named benchmark and return its record."""
    try:
        runner = BENCH_RUNNERS[name]
    except KeyError:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"unknown benchmark {name!r} (known: {sorted(BENCH_RUNNERS)})"
        ) from None
    return runner()


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def bench_path(directory: Path, name: str) -> Path:
    return Path(directory) / f"BENCH_{name}.json"


def write_bench(record: BenchRecord, directory: Path) -> Path:
    """Serialize ``record`` as ``<directory>/BENCH_<name>.json``."""
    path = bench_path(directory, record.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(  # repro: lint-ok[DET005] - bench artifact export
        json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_bench(directory: Path, name: str) -> BenchRecord:
    """Load ``BENCH_<name>.json`` from ``directory``."""
    path = bench_path(directory, name)
    data = json.loads(path.read_text())  # repro: lint-ok[DET005] - bench artifact import
    return BenchRecord.from_dict(data)


# ---------------------------------------------------------------------------
# The regression gate
# ---------------------------------------------------------------------------


@dataclass
class BenchComparison:
    """Outcome of comparing a fresh record against a baseline."""

    name: str
    ok: bool
    failures: list[str] = field(default_factory=list)


def _diff_sim(current: Any, baseline: Any, path: str, failures: list[str]) -> None:
    """Recursive byte-exact diff with leaf-level failure messages."""
    if isinstance(baseline, dict) and isinstance(current, dict):
        for key in sorted(set(baseline) | set(current)):
            where = f"{path}.{key}" if path else key
            if key not in current:
                failures.append(f"sim:{where}: missing (baseline {baseline[key]!r})")
            elif key not in baseline:
                failures.append(f"sim:{where}: new key (current {current[key]!r})")
            else:
                _diff_sim(current[key], baseline[key], where, failures)
        return
    if current != baseline:
        failures.append(f"sim:{path}: {baseline!r} -> {current!r}")


def compare_bench(current: BenchRecord, baseline: BenchRecord) -> BenchComparison:
    """Gate ``current`` against ``baseline``.

    Schema versions must agree, and the sim results must match byte-exact
    (canonical JSON equality — drift lists the offending leaves).
    """
    comparison = BenchComparison(name=current.name, ok=True)
    if current.schema_version != baseline.schema_version:
        # Loud, direction-specific failure — a stale baseline must never
        # be skipped over.
        if baseline.schema_version < current.schema_version:
            comparison.failures.append(
                f"stale baseline: schema v{baseline.schema_version} "
                f"predates current v{current.schema_version} — regenerate it "
                "with: repro bench --out <baseline-dir>"
            )
        else:
            comparison.failures.append(
                f"baseline schema v{baseline.schema_version} is newer than "
                f"this checkout's v{current.schema_version} — update the "
                "checkout before gating"
            )
        comparison.ok = False
        return comparison
    if canonical_sim_json(current) != canonical_sim_json(baseline):
        _diff_sim(current.sim, baseline.sim, "", comparison.failures)
        comparison.ok = False
    return comparison
