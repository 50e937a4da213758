"""Every subcommand resolves scenario names the same way."""

from __future__ import annotations

import pytest

from repro.cli import main

UNKNOWN = "unknown scenario 'bogus' (known: "


@pytest.mark.parametrize(
    "argv",
    [
        ["chaos", "bogus"],
        ["chaos", "bogus", "--seeds", "0,1"],
        ["san", "bogus"],
        ["prof", "--scenario", "bogus"],
        ["slo", "bogus"],
        ["trace", "--pipeline", "bogus"],
        ["lint", "--recipe", "bogus"],
    ],
    ids=lambda argv: argv[0],
)
def test_unknown_name_is_one_message_and_exit_two(argv, capsys):
    assert main(argv) == 2
    assert UNKNOWN in capsys.readouterr().err


def test_chaos_prefix_only_names_fault_scenarios(capsys):
    """``chaos:fig5`` used to run fig5 silently."""
    assert main(["slo", "chaos:fig5"]) == 2
    assert "unknown scenario 'chaos:fig5'" in capsys.readouterr().err


def test_chaos_rejects_a_scenario_without_faults(capsys):
    assert main(["chaos", "fig5"]) == 1
    assert "declares no fault plan" in capsys.readouterr().err


def test_rate_is_an_error_on_a_scenario_without_one(capsys):
    assert main(["slo", "fig5", "--rate", "10"]) == 1
    assert "declares no sensing rate" in capsys.readouterr().err


def test_prof_accepts_a_flat_chaos_name(capsys):
    """``prof --scenario failover`` was rejected (only ``chaos:failover``)."""
    assert main(["prof", "--scenario", "failover"]) == 0
    assert "Profile — failover" in capsys.readouterr().out


def test_lint_recipe_accepts_every_chaos_name(capsys):
    """``lint --recipe partition_heal`` was ENOENT although it deploys the
    same recipe as ``failover``."""
    assert main(["lint", "--recipe", "partition_heal", "--strict"]) == 0
    assert main(["lint", "--recipe", "partition_heal", "--deadline", "--strict"]) == 0


def test_trace_runs_a_chaos_scenario_and_judges_its_own_deadlines(capsys):
    """``trace --pipeline`` took only paper/fig5, and ``--summary`` needed
    a matching ``--recipe`` repeated to print verdicts."""
    assert main(["trace", "--pipeline", "failover", "--summary"]) == 0
    out = capsys.readouterr().out
    assert "Latency breakdown — failover" in out
    (train,) = [line for line in out.splitlines() if line.startswith("train")]
    assert "10000" in train and "OK" in train
