"""The ``repro lint`` subcommand."""

import json

from repro.cli import main


def test_catalog_lists_rules(capsys):
    assert main(["lint", "--catalog"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "DET003", "DET004", "DET005"):
        assert rule_id in out


def test_no_target_is_usage_error(capsys):
    assert main(["lint"]) == 2
    assert "nothing to lint" in capsys.readouterr().err


def test_clean_file_exits_zero(tmp_path, capsys):
    path = tmp_path / "clean.py"
    path.write_text("VALUES = [1, 2, 3]\n", encoding="utf-8")
    assert main(["lint", str(path)]) == 0
    assert "lint OK" in capsys.readouterr().out


def test_violation_exits_one_and_reports_location(tmp_path, capsys):
    path = tmp_path / "dirty.py"
    path.write_text("import time\nx = time.time()\n", encoding="utf-8")
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"{path}:2" in out
    assert "DET001" in out


def test_warning_blocks_only_in_strict(tmp_path):
    path = tmp_path / "writer.py"
    path.write_text("f = open('out.txt', 'w')\n", encoding="utf-8")
    assert main(["lint", str(path)]) == 0
    assert main(["lint", str(path), "--strict"]) == 1


def test_json_format(tmp_path, capsys):
    path = tmp_path / "dirty.py"
    path.write_text("import random\nx = random.random()\n", encoding="utf-8")
    assert main(["lint", str(path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["diagnostics"][0]["rule"] == "DET002"


def test_rules_filter(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text("import time\nx = time.time()\n", encoding="utf-8")
    assert main(["lint", str(path), "--rules", "DET003"]) == 0


def test_recipe_fig5_passes(capsys):
    assert main(["lint", "--recipe", "fig5"]) == 0
    assert "lint OK" in capsys.readouterr().out


def test_recipe_file_with_findings(tmp_path, capsys):
    recipe = tmp_path / "bad.json"
    recipe.write_text(
        json.dumps(
            {
                "recipe": "bad",
                "tasks": [
                    {
                        "id": "sense",
                        "operator": "sensor",
                        "outputs": ["raw", "extra"],
                        "params": {"device": "d", "rate_hz": 5},
                    },
                    {
                        "id": "learn",
                        "operator": "train",
                        "inputs": ["raw"],
                        "params": {"model": "m", "label_key": "y"},
                    },
                ],
            }
        ),
        encoding="utf-8",
    )
    # 'extra' is an orphan stream: a warning, so plain run passes ...
    assert main(["lint", "--recipe", str(recipe)]) == 0
    out = capsys.readouterr().out
    assert "RCP105" in out
    # ... and strict fails.
    assert main(["lint", "--recipe", str(recipe), "--strict"]) == 1


def test_missing_recipe_file_is_io_error(capsys):
    assert main(["lint", "--recipe", "no/such/file.recipe"]) == 2


def test_catalog_lists_dataflow_rules(capsys):
    assert main(["lint", "--catalog"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("FLG001", "SAN020", "SAN021", "RCP200", "RCP210", "RCP230"):
        assert rule_id in out


def test_dataflow_flag_runs_state_soundness(tmp_path, capsys):
    path = tmp_path / "toy.py"
    path.write_text(
        "from repro.runtime.component import Component\n"
        "\n"
        "class Toy(Component):\n"
        "    def on_record(self, stream, record):\n"
        "        self.seen = 1\n",
        encoding="utf-8",
    )
    # The determinism engine alone accepts the file ...
    assert main(["lint", str(path)]) == 0
    capsys.readouterr()
    # ... the dataflow pass does not.
    assert main(["lint", str(path), "--dataflow"]) == 1
    assert "SAN020" in capsys.readouterr().out


def test_recipe_shortcuts_pass_payload_checks(capsys):
    for shortcut in ("fig5", "paper", "failover"):
        assert main(["lint", "--recipe", shortcut, "--strict"]) == 0, shortcut
        capsys.readouterr()


def test_calibrate_committed_baseline_passes(capsys):
    """fig5's own profiled run is the baseline the drift gate reads."""
    assert main(["lint", "--calibrate", "fig5", "--strict"]) == 0
    assert "lint OK" in capsys.readouterr().out


def test_calibrate_unknown_scenario_exits_two(capsys):
    assert main(["lint", "--calibrate", "bogus"]) == 2
    assert "unknown scenario 'bogus'" in capsys.readouterr().err


def test_sarif_format(tmp_path, capsys):
    path = tmp_path / "dirty.py"
    path.write_text("import time\nx = time.time()\n", encoding="utf-8")
    assert main(["lint", str(path), "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    result = run["results"][0]
    assert result["ruleId"] == "DET001"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] == 2


def test_sarif_where_only_findings_use_logical_locations(capsys):
    from repro.lint import render_sarif
    from repro.util.validate import Diagnostic, Severity

    diag = Diagnostic(
        rule="RCP230",
        severity=Severity.ERROR,
        message="drift",
        where="op mqtt.send (fig5)",
    )
    log = json.loads(render_sarif([diag]))
    location = log["runs"][0]["results"][0]["locations"][0]
    assert location["logicalLocations"][0]["fullyQualifiedName"] == (
        "op mqtt.send (fig5)"
    )


def test_deadline_requires_recipe(capsys):
    assert main(["lint", "--deadline"]) == 2
    assert "--recipe" in capsys.readouterr().err


def test_deadline_passes_builtins_strict(capsys):
    for name in ("fig5", "paper", "failover"):
        assert main(["lint", "--recipe", name, "--deadline", "--strict"]) == 0, name
        assert "lint OK" in capsys.readouterr().out


def test_deadline_reports_rcp240_for_hot_recipe(tmp_path, capsys):
    recipe = tmp_path / "hot.recipe"
    recipe.write_text(
        "recipe hot\n\n"
        "task sense : sensor\n"
        "    out raw\n"
        "    device = d\n"
        "    rate_hz = 50\n\n"
        "task act : actuator\n"
        "    in raw\n"
        "    deadline_ms = 1\n"
        "    device = d\n",
        encoding="utf-8",
    )
    assert main(["lint", "--recipe", str(recipe), "--deadline"]) == 1
    out = capsys.readouterr().out
    assert "RCP240" in out


def test_validate_builtin_baselines_clean(capsys):
    """Observed runs of the built-in scenarios are the baselines."""
    for name in ("fig5", "failover"):
        argv = ["lint", "--recipe", name, "--deadline", "--validate", name]
        assert main(argv) == 0, name
        capsys.readouterr()


def test_validate_unknown_scenario_exits_two(capsys):
    argv = ["lint", "--recipe", "fig5", "--deadline", "--validate", "bogus"]
    assert main(argv) == 2
    assert "unknown scenario 'bogus'" in capsys.readouterr().err


def test_validate_reads_trace_jsonl(tmp_path, capsys):
    """--validate accepts an obs.span JSONL dump; an impossible observed
    max on the sink trips the soundness gate."""
    recipe = tmp_path / "chain.recipe"
    recipe.write_text(
        "recipe chain\n\n"
        "task sense : sensor\n"
        "    out raw\n"
        "    device = d\n"
        "    rate_hz = 5\n\n"
        "task act : actuator\n"
        "    in raw\n"
        "    device = d\n",
        encoding="utf-8",
    )
    trace = tmp_path / "trace.jsonl"
    spans = [
        {
            "t": 0.001,
            "src": "n1",
            "ev": "obs.span",
            "f": {
                "trace": "t1",
                "span": "a",
                "name": "sense",
                "task": "sense",
                "hop": 0,
                "start": 0.0,
            },
        },
        {
            "t": 500.001,
            "src": "n1",
            "ev": "obs.span",
            "f": {
                "trace": "t1",
                "span": "b",
                "parent": "a",
                "name": "act",
                "task": "act",
                "hop": 1,
                "start": 500.0,
            },
        },
    ]
    trace.write_text(
        "\n".join(json.dumps(span) for span in spans) + "\n", encoding="utf-8"
    )
    assert (
        main(
            [
                "lint",
                "--recipe",
                str(recipe),
                "--deadline",
                "--validate",
                str(trace),
            ]
        )
        == 1
    )
    assert "RCP243" in capsys.readouterr().out
