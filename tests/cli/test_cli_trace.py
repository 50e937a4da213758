"""``repro trace`` CLI: breakdown output, exports, input analysis."""

import json

import pytest

from repro.cli import main
from repro.sim.trace import Tracer


@pytest.mark.slow
def test_paper_pipeline_prints_breakdown(capsys):
    code = main(
        ["trace", "--pipeline", "paper", "--rate", "2", "--duration", "1.5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Latency breakdown" in out
    assert "Avg(ms)" in out
    assert "End-to-end" in out
    # The paper's Tables II/III stage set must be represented.
    for stage in ("publish", "broker", "train", "predict"):
        assert stage in out


@pytest.mark.slow
def test_exports_jsonl_and_chrome(tmp_path, capsys):
    jsonl = tmp_path / "trace.jsonl"
    chrome = tmp_path / "chrome.json"
    code = main(
        [
            "trace",
            "--pipeline",
            "paper",
            "--rate",
            "2",
            "--duration",
            "1.5",
            "--jsonl",
            str(jsonl),
            "--chrome",
            str(chrome),
        ]
    )
    assert code == 0
    assert len(Tracer.from_jsonl(jsonl)) > 0
    events = json.loads(chrome.read_text())["traceEvents"]
    assert any(e["ph"] == "X" for e in events)
    assert any(e["ph"] == "M" for e in events)


@pytest.mark.slow
def test_analyzes_existing_dump_via_input(tmp_path, capsys):
    jsonl = tmp_path / "trace.jsonl"
    assert (
        main(
            [
                "trace",
                "--pipeline",
                "paper",
                "--rate",
                "2",
                "--duration",
                "1.5",
                "--jsonl",
                str(jsonl),
            ]
        )
        == 0
    )
    first = capsys.readouterr().out
    assert main(["trace", "--input", str(jsonl)]) == 0
    second = capsys.readouterr().out
    # The offline analysis reconstructs the same breakdown table.
    table = [l for l in first.splitlines() if "|" in l]
    assert table and table == [l for l in second.splitlines() if "|" in l]


def test_spanless_trace_exits_one(tmp_path, capsys):
    tracer = Tracer()
    tracer.emit(0.0, "n1", "some.event", x=1)
    path = tmp_path / "empty.jsonl"
    tracer.to_jsonl(path)
    assert main(["trace", "--input", str(path)]) == 1
    assert "no spans" in capsys.readouterr().out


def test_missing_input_exits_two(capsys):
    assert main(["trace", "--input", "/nonexistent/trace.jsonl"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("line", ['{"x": 1}', "[1,2]"], ids=["missing-key", "non-object"])
@pytest.mark.parametrize(
    "command",
    [["trace", "--input"], ["lint", "--recipe", "fig5", "--deadline", "--validate"]],
    ids=["trace", "lint"],
)
def test_malformed_dump_exits_one_without_traceback(tmp_path, capsys, command, line):
    path = tmp_path / "f.jsonl"
    path.write_text(line + "\n")
    assert main([*command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{path}:1" in err
    assert "Traceback" not in err
