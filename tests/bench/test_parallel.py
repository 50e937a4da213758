"""The parallel multi-seed runner: determinism and hard failure semantics.

The merged result of ``run_parallel`` must be a pure function of the
(scenario, seeds) request: byte-identical whether it ran serially or
on any number of worker processes, in the caller's seed order. And a
worker that raises or dies is a hard error — a merged result never
silently omits a seed.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os

import pytest

from repro.bench.parallel import ParallelRunError, merge_digest, run_parallel
from repro.errors import ConfigurationError
from repro.registry import SCENARIOS

SEEDS = [3, 0, 7]  # deliberately unsorted: merge order follows the caller


def test_serial_and_parallel_chaos_runs_are_byte_identical():
    serial = run_parallel("sensor_flap", SEEDS, workers=1)
    two = run_parallel("sensor_flap", SEEDS, workers=2)
    eight = run_parallel("sensor_flap", SEEDS, workers=8)
    assert two == serial
    assert eight == serial
    assert merge_digest(two) == merge_digest(serial)
    assert merge_digest(eight) == merge_digest(serial)
    # Order is the caller's, keyed by seed — not completion order.
    assert [row["seed"] for row in serial] == SEEDS
    assert all(row["invariants_ok"] for row in serial)


def test_serial_and_parallel_fig5_runs_are_byte_identical():
    seeds = [55, 56]
    serial = run_parallel("fig5", seeds, workers=1, duration_s=2.0, profile=True)
    parallel = run_parallel("fig5", seeds, workers=2, duration_s=2.0, profile=True)
    assert parallel == serial
    assert [row["seed"] for row in serial] == seeds
    assert all(row["profile_digest"] for row in serial)
    # Different seeds are genuinely different runs.
    assert serial[0]["profile_digest"] != serial[1]["profile_digest"]


def test_worker_exception_is_a_hard_error():
    """A failing seed fails the whole run, naming the seed."""
    with pytest.raises(ParallelRunError, match="seed"):
        run_parallel("no-such-scenario", [0, 1], workers=2)


def _dying_build(seed: int, prepare):
    if seed == 1:
        os._exit(13)  # simulate a worker process dying mid-task
    return SCENARIOS["sensor_flap"].build(seed=seed, prepare=prepare)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="test-registered scenario reaches workers only via fork",
)
def test_worker_death_is_a_hard_error(monkeypatch):
    dying = dataclasses.replace(
        SCENARIOS["sensor_flap"], name="exit", build=_dying_build
    )
    monkeypatch.setitem(SCENARIOS, "exit", dying)
    with pytest.raises(ParallelRunError):
        run_parallel("exit", [0, 1], workers=2)


def test_unknown_task_rejected():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        run_parallel("nope", [0])


def test_duplicate_seeds_rejected():
    with pytest.raises(ConfigurationError, match="duplicate seeds"):
        run_parallel("sensor_flap", [0, 0])
