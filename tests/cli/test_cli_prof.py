"""``repro prof`` CLI: formats, exports, exit codes."""

from __future__ import annotations

import json

from repro.cli import main

PROF_FAST = [
    "prof",
    "--scenario",
    "paper",
    "--rate",
    "20",
    "--duration",
    "1.0",
    "--seed",
    "4",
]


def test_prof_tree_prints_nodes_and_kernel(capsys):
    assert main(PROF_FAST) == 0
    out = capsys.readouterr().out
    assert "Profile — paper" in out
    assert "module-e" in out
    assert "% util" in out
    assert "kernel:" in out


def test_prof_folded_format_is_parseable(capsys):
    assert main(PROF_FAST + ["--format", "folded"]) == 0
    out = capsys.readouterr().out
    data_lines = [
        line for line in out.splitlines() if ";" in line and line[-1].isdigit()
    ]
    assert data_lines
    for line in data_lines:
        stack, micros = line.rsplit(" ", 1)
        assert len(stack.split(";")) == 3
        int(micros)


def test_prof_json_format(capsys):
    assert main(PROF_FAST + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    assert "nodes" in payload and "elapsed_s" in payload


def test_prof_exports_folded_and_chrome(tmp_path, capsys):
    folded = tmp_path / "out.folded"
    chrome = tmp_path / "counters.json"
    assert (
        main(PROF_FAST + ["--folded", str(folded), "--chrome", str(chrome)]) == 0
    )
    assert folded.read_text().splitlines()
    counters = json.loads(chrome.read_text())
    assert counters["traceEvents"]
    assert all(event["ph"] == "C" for event in counters["traceEvents"])


def test_prof_rates_sweep_prints_utilization_table(capsys):
    assert (
        main(
            [
                "prof",
                "--scenario",
                "paper",
                "--rates",
                "5,20",
                "--duration",
                "1.0",
                "--seed",
                "4",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "CPU utilization over the measured window" in out
    assert "module-e" in out
    assert "wlan" in out


def test_prof_unknown_scenario_exits_two(capsys):
    assert main(["prof", "--scenario", "bogus"]) == 2
    assert "unknown scenario" in capsys.readouterr().err

