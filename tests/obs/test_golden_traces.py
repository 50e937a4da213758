"""Golden-trace regression tests.

Two fixed-seed scenarios — the Fig. 5 watching recipe and a chaos
partition/heal run — are executed with observability on, and their trace
output is reduced to stable digests committed under ``tests/golden/``:

* ``jsonl_sha256`` — hash of the full trace JSONL dump (byte-identical
  reproduction of *everything* the tracer saw),
* ``span_tree_sha256`` — hash of the canonicalized span-tree rendering
  (order-independent, span-only view), plus span/trace counts.

Any change to event ordering, span topology, field encoding, or the
JSONL format shows up here first.  To regenerate after an intentional
change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_golden_traces.py

and commit the updated files with an explanation of why the traces moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.obs import canonical_span_lines, check_span_integrity, spans_from_tracer
from repro.util.flags import flag_enabled

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
REGEN = flag_enabled("REPRO_REGEN_GOLDEN")


def _run_fig5_zero_cost(duration_s: float):
    """The golden fingerprints the historical zero-cost build explicitly;
    the registered ``fig5`` scenario runs under the Pi calibration."""
    import dataclasses

    from repro.bench.scenarios import FIG5, build_fig5_testbed
    from repro.scenario import run

    zero_cost = dataclasses.replace(FIG5, build=build_fig5_testbed)
    return run(zero_cost, seed=55, duration_s=duration_s, observe=True)


def _digests(tracer, tmp_path: Path) -> dict:
    dump = tmp_path / "trace.jsonl"
    tracer.to_jsonl(dump)
    spans = spans_from_tracer(tracer)
    assert check_span_integrity(spans) == []
    tree = "\n".join(canonical_span_lines(spans)).encode()
    return {
        "jsonl_sha256": hashlib.sha256(dump.read_bytes()).hexdigest(),
        "span_tree_sha256": hashlib.sha256(tree).hexdigest(),
        "spans": len(spans),
        "traces": len({s.trace_id for s in spans}),
    }


def _check_golden(name: str, digests: dict) -> None:
    path = GOLDEN_DIR / name
    if REGEN:
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path}")
    expected = json.loads(path.read_text())
    assert digests == expected, (
        f"trace digest drift vs {path} — if intentional, regenerate with "
        "REPRO_REGEN_GOLDEN=1"
    )


@pytest.mark.slow
def test_fig5_trace_is_golden(tmp_path):
    outcome = _run_fig5_zero_cost(10.0)
    _check_golden("fig5_seed55.json", _digests(outcome.runtime.tracer, tmp_path))


@pytest.mark.slow
def test_chaos_partition_heal_trace_is_golden(tmp_path):
    from repro.chaos.scenarios import run_scenario

    result = run_scenario("partition_heal", seed=7, observe=True)
    assert result.report.ok
    assert result.tracer is not None
    _check_golden("chaos_partition_heal_seed7.json", _digests(result.tracer, tmp_path))


@pytest.mark.slow
def test_fig5_trace_reproduces_in_process(tmp_path):
    """Same seed twice in one interpreter ⇒ byte-identical JSONL dumps."""
    dumps = []
    for i in range(2):
        dump = tmp_path / f"run{i}.jsonl"
        _run_fig5_zero_cost(5.0).runtime.tracer.to_jsonl(dump)
        dumps.append(dump.read_bytes())
    assert dumps[0] == dumps[1]
