"""``repro chaos`` CLI: exit codes, determinism, violation reporting."""

from types import SimpleNamespace

import pytest

from repro.cli import main


def test_list_prints_every_scenario(capsys):
    from repro.registry import fault_scenarios

    assert main(["chaos", "--list"]) == 0
    out = capsys.readouterr().out
    for name in fault_scenarios():
        assert name in out


def test_unknown_scenario_exits_two(capsys):
    assert main(["chaos", "no-such-scenario"]) == 2
    assert "unknown scenario 'no-such-scenario' (known: " in capsys.readouterr().err


@pytest.mark.slow
def test_passing_scenario_exits_zero(capsys):
    assert main(["chaos", "partition_heal", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "scenario partition_heal (seed 3" in out
    assert "PASS" in out


@pytest.mark.slow
def test_same_seed_reports_same_digest(capsys):
    def digest() -> str:
        assert main(["chaos", "sensor_flap", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        (line,) = [l for l in out.splitlines() if "trace digest:" in l]
        return line.split()[-1]

    assert digest() == digest()


@pytest.mark.slow
def test_heal_prints_recovery_report(capsys):
    assert main(["chaos", "failover", "--seed", "0", "--recover"]) == 0
    out = capsys.readouterr().out
    assert "recovery report" in out
    assert "detection:" in out
    assert "failover moves: 1" in out
    assert "migrations: 1" in out
    assert "PASS" in out


@pytest.mark.slow
def test_chaos_recover_flag_appends_report(capsys):
    assert main(["chaos", "failover", "--recover"]) == 0
    out = capsys.readouterr().out
    assert "recovery report" in out
    assert "degraded-mode decisions" in out


def test_recover_with_seeds_is_rejected(capsys):
    """``--seeds`` used to drop ``--recover`` silently and exit 0."""
    assert main(["chaos", "failover", "--seeds", "0", "--recover"]) == 2
    captured = capsys.readouterr()
    assert "--recover" in captured.err and "--seeds" in captured.err
    assert captured.out == ""


def _stub_result(ok: bool):
    report = SimpleNamespace(
        ok=ok,
        render=lambda: "invariants: " + ("PASS" if ok else "FAIL\n  FAIL qos1-loss"),
    )
    return SimpleNamespace(
        scenario=SimpleNamespace(name="stubbed"),
        seed=0,
        duration_s=1.0,
        report=report,
        trace_digest="deadbeef" * 8,
        trace_records=42,
        faults_applied=1,
    )


def test_invariant_violation_exits_one_and_is_reported(capsys, monkeypatch):
    import repro.cli as cli

    monkeypatch.setattr(
        cli, "run_scenario", lambda name, seed, profile=False: _stub_result(False)
    )
    assert main(["chaos", "partition_heal"]) == 1
    out = capsys.readouterr().out
    assert "FAIL qos1-loss" in out


def test_any_failure_fails_the_whole_run(capsys, monkeypatch):
    import repro.cli as cli

    results = iter([_stub_result(True), _stub_result(False), _stub_result(True)])
    monkeypatch.setattr(
        cli, "run_scenario", lambda name, seed, profile=False: next(results)
    )
    monkeypatch.setattr(cli, "fault_scenarios", lambda: ["a", "b", "c"])
    assert main(["chaos"]) == 1
