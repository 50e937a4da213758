"""``repro san`` CLI: listing, exit codes, JSON output."""

import json

import pytest

from repro.cli import main


def test_list_prints_every_scenario(capsys):
    from repro.registry import SCENARIOS

    assert main(["san", "--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_unknown_scenario_exits_two(capsys):
    assert main(["san", "no-such-scenario"]) == 2
    assert "unknown scenario 'no-such-scenario' (known: " in capsys.readouterr().err


@pytest.mark.slow
def test_fig5_strict_exits_zero(capsys):
    assert main(["san", "fig5", "--perturb", "1", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "fig5:" in out
    assert "1 perturbed replays (stable)" in out
    assert "san OK" in out


@pytest.mark.slow
def test_json_format_is_machine_readable(capsys):
    assert main(["san", "fig5", "--perturb", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["perturb"] == 1
    (scenario,) = payload["scenarios"]
    assert scenario["name"] == "fig5"
    assert scenario["race_pairs"] == 0
    assert scenario["diagnostics"] == []
