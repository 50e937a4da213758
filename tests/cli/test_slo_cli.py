"""``repro slo`` / ``repro top`` / ``repro trace --summary`` CLIs."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.cli import main


@pytest.mark.slow
def test_slo_failover_json_reports_burn_and_exits_one(capsys):
    code = main(["slo", "chaos:failover", "--format", "json"])
    assert code == 1  # the page is an SLO300 error finding
    payload = json.loads(capsys.readouterr().out)
    train = payload["report"]["flows"]["train"]
    assert train["paged"] is True
    assert train["overdue"] > 0
    assert 20.0 <= train["first_page_at"] <= 25.0
    assert any(a["state"] == "page" for a in payload["report"]["alerts"])
    assert any(d["rule"] == "SLO300" for d in payload["diagnostics"])


@pytest.mark.slow
def test_slo_failover_expect_burn_gates_zero(capsys):
    code = main(["slo", "chaos:failover", "--expect-burn"])
    assert code == 0
    out = capsys.readouterr().out
    assert "alert timeline" in out
    assert "overdue (never completed)" in out


@pytest.mark.slow
def test_slo_fig5_strict_passes_clean(capsys):
    code = main(["slo", "fig5", "--strict", "--duration", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "SLO report" in out
    assert "slo OK" in out


def test_slo_unknown_scenario_errors(capsys):
    code = main(["slo", "nonsense"])
    assert code == 2
    assert "unknown scenario 'nonsense' (known: " in capsys.readouterr().err


@pytest.mark.slow
def test_trace_summary_with_recipe_prints_verdicts(capsys):
    code = main(
        [
            "trace",
            "--pipeline",
            "fig5",
            "--duration",
            "8",
            "--summary",
            "--recipe",
            "fig5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "flow" in out and "p95_ms" in out and "verdict" in out


def test_top_polls_and_prints(monkeypatch, capsys):
    bodies = iter(["t=1.000s\nseries:\n  a 1\n", "t=2.000s\nseries:\n  a 2\n"])
    monkeypatch.setattr(cli, "_fetch_text", lambda url, timeout_s=10.0: next(bodies))
    code = main(
        [
            "top",
            "http://127.0.0.1:9999",
            "--iterations",
            "2",
            "--interval",
            "0",
            "--no-clear",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "t=1.000s" in out and "t=2.000s" in out


def test_top_unreachable_exits_one(monkeypatch, capsys):
    def boom(url, timeout_s=10.0):
        raise OSError("connection refused")

    monkeypatch.setattr(cli, "_fetch_text", boom)
    code = main(["top", "http://127.0.0.1:1", "--iterations", "1"])
    assert code == 1
    assert "cannot reach" in capsys.readouterr().err
