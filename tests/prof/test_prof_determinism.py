"""Determinism and paper-story tests for the profiler and its exports.

A profile must be a pure function of (scenario, seed): identical runs
serialize byte-identically, and the utilization numbers must reproduce
the paper's §V-C capacity story — the training node saturates between
20 and 40 Hz.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_paper_experiment
from repro.prof import (
    folded_stacks,
    format_profile_tree,
    profile_digest,
    profile_to_dict,
)


def paper_profile(rate_hz: float = 20.0, seed: int = 9):
    return run_paper_experiment(
        rate_hz, duration_s=1.5, seed=seed, profile=True
    ).profiler


def test_same_seed_means_byte_identical_exports():
    first = paper_profile()
    second = paper_profile()
    assert format_profile_tree(first) == format_profile_tree(second)
    assert folded_stacks(first) == folded_stacks(second)
    assert profile_digest(first) == profile_digest(second)
    assert profile_to_dict(first) == profile_to_dict(second)


def test_different_seed_changes_the_digest():
    assert profile_digest(paper_profile(seed=9)) != profile_digest(
        paper_profile(seed=10)
    )


def test_folded_stack_format():
    lines = folded_stacks(paper_profile()).splitlines()
    assert lines == sorted(lines)
    for line in lines:
        stack, micros = line.rsplit(" ", 1)
        assert len(stack.split(";")) == 3  # node;domain;op
        assert int(micros) >= 0


def test_tree_mentions_every_cpu_node():
    profiler = paper_profile()
    tree = format_profile_tree(profiler, title="t")
    for node in profiler.cpu_nodes():
        assert node in tree
    assert "wlan channel airtime" in tree
    assert "kernel:" in tree


def test_profile_dict_is_json_ready():
    import json

    payload = profile_to_dict(paper_profile())
    assert json.loads(json.dumps(payload)) == payload
    assert payload["elapsed_s"] > 0
    assert "module-e" in payload["nodes"]


@pytest.mark.slow
def test_saturation_story_matches_paper():
    """§V-C: "sensing rate is 20 to 40Hz, ... real-time processing was no
    longer possible" — the training node's CPU crosses saturation there."""
    by_rate = {
        rate: run_paper_experiment(
            rate, duration_s=2.5, seed=1, profile=True
        ).cpu_utilization
        for rate in (5.0, 20.0, 40.0)
    }
    # Below the knee: the training node (module-e) has headroom.
    assert by_rate[5.0]["module-e"] < 0.5
    assert by_rate[20.0]["module-e"] < 0.95
    # Beyond the knee: saturated.
    assert by_rate[40.0]["module-e"] >= 0.99
    # Utilization is monotone in offered load and never exceeds 100%.
    for node in by_rate[5.0]:
        assert (
            by_rate[5.0][node] <= by_rate[20.0][node] + 1e-9 <= by_rate[40.0][node] + 2e-9
        )
        assert by_rate[40.0][node] <= 1.0 + 1e-9


@pytest.mark.slow
def test_fig5_profile_reproduces_and_diverges_by_seed():
    from repro.bench.scenarios import FIG5
    from repro.scenario import run

    def profile(seed: int) -> str:
        outcome = run(FIG5, seed=seed, duration_s=5.0, profile=True)
        return profile_digest(outcome.runtime.prof)

    assert profile(55) == profile(55)
    assert profile(55) != profile(56)
