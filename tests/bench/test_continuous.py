"""The continuous-benchmark record format and regression gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.continuous import (
    BENCH_RUNNERS,
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    compare_bench,
    environment_fingerprint,
    load_bench,
    run_bench,
    write_bench,
)
from repro.errors import ConfigurationError


def make_record(**sim) -> BenchRecord:
    record = BenchRecord(name="t")
    record.sim = dict(sim) or {"x": 1, "nested": {"a": 2.5}}
    return record


def test_record_roundtrips_through_json(tmp_path):
    record = make_record()
    path = write_bench(record, tmp_path)
    assert path.name == "BENCH_t.json"
    loaded = load_bench(tmp_path, "t")
    assert loaded.to_dict() == record.to_dict()
    # On-disk form is stable: sorted keys, trailing newline.
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["schema_version"] == BENCH_SCHEMA_VERSION


def test_identical_records_pass_the_gate():
    comparison = compare_bench(make_record(), make_record())
    assert comparison.ok
    assert not comparison.failures


def test_sim_drift_fails_with_leaf_paths():
    current = make_record()
    current.sim["nested"] = {"a": 2.6}
    comparison = compare_bench(current, make_record())
    assert not comparison.ok
    assert any("nested.a" in failure for failure in comparison.failures)


def test_missing_and_new_sim_keys_are_reported():
    baseline = make_record()
    current = make_record()
    del current.sim["x"]
    current.sim["y"] = 9
    comparison = compare_bench(current, baseline)
    assert not comparison.ok
    joined = "\n".join(comparison.failures)
    assert "x: missing" in joined
    assert "y: new key" in joined


def test_newer_baseline_schema_refuses_to_compare():
    baseline = make_record()
    baseline.schema_version = BENCH_SCHEMA_VERSION + 1
    comparison = compare_bench(make_record(), baseline)
    assert not comparison.ok
    assert "newer than this checkout" in comparison.failures[0]


def test_stale_baseline_schema_fails_loudly():
    """An old-schema baseline is a hard failure telling the operator to
    regenerate — never a skip."""
    baseline = make_record()
    baseline.schema_version = BENCH_SCHEMA_VERSION - 1
    comparison = compare_bench(make_record(), baseline)
    assert not comparison.ok
    assert "stale baseline" in comparison.failures[0]
    assert "regenerate" in comparison.failures[0]


def test_environment_fingerprint_shape():
    env = environment_fingerprint()
    assert set(env) == {"python", "implementation", "machine", "system"}
    assert all(isinstance(v, str) and v for v in env.values())


def test_unknown_benchmark_raises():
    with pytest.raises(ConfigurationError, match="unknown benchmark"):
        run_bench("nope")


@pytest.mark.slow
def test_saturation_bench_is_deterministic_and_tells_the_story():
    assert set(BENCH_RUNNERS) >= {"fig5", "saturation"}
    first = run_bench("saturation")
    second = run_bench("saturation")
    assert first.sim == second.sim  # sim half is a pure function of the seed
    rates = first.sim["rates"]
    assert rates["20hz"]["cpu_utilization"]["module-e"] < 0.95
    assert rates["40hz"]["cpu_utilization"]["module-e"] >= 0.99
    comparison = compare_bench(second, first)
    assert comparison.ok, comparison.failures


@pytest.mark.slow
def test_committed_baseline_matches_current_code():
    """The CI gate in miniature: HEAD must reproduce the committed records."""
    from pathlib import Path

    baseline_dir = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
    for name in ("failover", "fig5", "saturation"):
        baseline = load_bench(baseline_dir, name)
        comparison = compare_bench(run_bench(name), baseline)
        assert comparison.ok, (name, comparison.failures)


# ---------------------------------------------------------------------------
# Schema v3: per-flow latency summaries
# ---------------------------------------------------------------------------

_FLOW_KEYS = {"count", "p50_ms", "p95_ms", "p99_ms", "max_ms"}
_BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def test_committed_baselines_are_v3_with_flows():
    for name in ("fig5", "failover"):
        record = load_bench(_BASELINES, name)
        assert record.schema_version == BENCH_SCHEMA_VERSION
        assert record.sim["flows"], name
        for stage, summary in record.sim["flows"].items():
            assert set(summary) == _FLOW_KEYS, (name, stage)
            assert summary["count"] >= 1
            assert (
                summary["p50_ms"]
                <= summary["p95_ms"]
                <= summary["p99_ms"]
                <= summary["max_ms"]
            )
    saturation = load_bench(_BASELINES, "saturation")
    assert saturation.schema_version == BENCH_SCHEMA_VERSION
    for rate, row in saturation.sim["rates"].items():
        assert set(row["flows"]) == {"train", "predict"}, rate
        for summary in row["flows"].values():
            assert set(summary) == _FLOW_KEYS


def test_committed_baselines_contain_recipe_sink_flows():
    """The soundness gate needs the sink stages to be present."""
    assert "alert-messaging" in load_bench(_BASELINES, "fig5").sim["flows"]
    assert "train" in load_bench(_BASELINES, "failover").sim["flows"]


def test_flows_from_bench_reads_v3_records():
    from repro.lint.latency import flows_from_bench

    record = load_bench(_BASELINES, "fig5")
    flows = flows_from_bench(record)
    assert flows == record.sim["flows"]
    # The raw dict form works too (CLI --validate path).
    assert flows_from_bench(record.to_dict()) == record.sim["flows"]


def test_flow_drift_fails_the_gate():
    baseline = make_record(flows={"act": {"count": 3, "max_ms": 1.0}})
    current = make_record(flows={"act": {"count": 3, "max_ms": 2.0}})
    comparison = compare_bench(current, baseline)
    assert not comparison.ok
    assert any("flows.act.max_ms" in failure for failure in comparison.failures)
