"""The ledger checks itself: names, determinism, span soundness, layer
bypass, and that an injected slowdown lands on the layer it was put in.

Smoke windows (``--scale 0.05`` of ``run_seconds``); the whole file runs
in well under a minute.
"""

from __future__ import annotations

import json
import re
from time import perf_counter

import numpy as np
import pytest

import compare
import run as ledger
from spans import PACKAGES, SPAN_NAMES, Tracing
from workloads import COUNTER_NAMES, WORKLOADS

MANIFEST = ledger.MANIFEST
SIM = [name for name in WORKLOADS if name.startswith("sim_")]
REAL = [name for name in WORKLOADS if name.startswith("real_")]
KERNEL_SPANS = [s for s in SPAN_NAMES if s.startswith(("sim.kernel", "sim.cpu", "sim.on_event"))]


@pytest.fixture(scope="module", autouse=True)
def one_timed_build():
    # setup_s is not under test here; five timed builds per run would be
    # most of a smoke window's cost.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ledger, "SETUP_REPEATS", 1)
        yield


@pytest.fixture(scope="module")
def seconds(request) -> float:
    return request.config.getoption("--scale") * MANIFEST["run_seconds"]


@pytest.fixture(scope="module")
def untraced(seconds):
    return {name: ledger.measure(name, 1, seconds) for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced(seconds):
    # Twice the length, so each half is as long as the untraced runs above.
    return {name: ledger.measure_traced(name, 1, 2 * seconds) for name in WORKLOADS}


def test_manifest_matches_what_runs(untraced, traced):
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit_ok = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    names = [w["name"] for w in MANIFEST["workloads"]]
    metrics = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    for entry in MANIFEST["workloads"] + metrics:
        assert name_ok.match(entry["name"]), entry["name"]
    for metric in metrics:
        assert unit_ok.match(metric["unit"]), metric
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert names == list(WORKLOADS)
    end_to_end = {m["name"] for m in MANIFEST["end_to_end"]}
    per_layer = {m["name"] for m in MANIFEST["per_layer"]}
    assert "setup_s" in end_to_end
    for name in names:
        assert untraced[name]["correct"], untraced[name]["errors"]
        assert traced[name]["correct"], traced[name]["errors"]
        assert set(untraced[name]["end_to_end"]) == end_to_end
        assert all(value > 0 for value in untraced[name]["end_to_end"].values())
        assert set(traced[name]["per_layer"]) == per_layer
    expected = {f"{span}.{part}" for span in SPAN_NAMES for part in ("calls", "self_s")}
    expected |= {f"share.{package}" for package in PACKAGES} | set(COUNTER_NAMES)
    assert expected <= per_layer


def test_same_seed_is_byte_identical_and_another_seed_is_not(untraced, traced, seconds):
    for name in WORKLOADS:
        # The traced run's span-free half is a second run of the same seed
        # and length; measure_traced itself fails the run when its traced
        # half delivers anything else.
        assert json.dumps(untraced[name]["exact"], sort_keys=True) == json.dumps(
            traced[name]["exact"], sort_keys=True
        ), name
    for name in SIM:
        other = ledger.measure(name, 2, seconds)
        assert other["exact"] != untraced[name]["exact"], name


def _measure_with_spans(name: str, seconds: float) -> tuple[Tracing, dict]:
    tracing = Tracing().install()
    try:
        record = ledger.measure(name, 1, seconds, tracing)
    finally:
        tracing.uninstall()
    return tracing, record


def test_span_trees_are_sound(seconds):
    for name in ("sim_fig5", "real_pubsub_qos1"):
        tracing, record = _measure_with_spans(name, seconds)
        assert not tracing.targets_missing
        _names, parents, starts, ends = tracing.columns()
        assert len(starts) > 1000
        assert (ends >= starts).all()
        has_parent = parents >= 0
        assert (parents[has_parent] < np.arange(len(parents))[has_parent]).all()
        # A child lies inside its parent.
        assert (starts[has_parent] >= starts[parents[has_parent]]).all()
        assert (ends[has_parent] <= ends[parents[has_parent]]).all()
        self_times = tracing.self_times()
        assert self_times.min() > -1e-9
        assert self_times.sum() == pytest.approx(tracing.root_seconds(), rel=0.02)
        # The roots cover the window (the real root also spans the loop's exit).
        wall = record["window_wall_s"] / record["host_speed"]
        assert tracing.root_seconds() == pytest.approx(wall, rel=0.02)


def test_each_workload_bypasses_the_layers_it_should(traced):
    def share(name: str, *packages: str) -> float:
        return sum(traced[name]["per_layer"][f"share.{p}"] for p in packages)

    for name in WORKLOADS:
        assert sum(share(name, p) for p in PACKAGES) == pytest.approx(1.0, abs=0.02)
        assert traced[name]["per_layer"]["trace.unattributed_share"] <= 0.15
        assert traced[name]["per_layer"]["trace.overhead_ratio"] > 1.0
    for name in ["sim_fanout_qos1", *REAL]:
        assert share(name, "core", "ml", "sensors") == 0
    for name in REAL:
        # No kernel. ``share.sim`` itself is not 0 there: the Tracer both
        # runtimes share lives in ``repro.sim.trace``.
        assert all(traced[name]["per_layer"][f"{span}.calls"] == 0 for span in KERNEL_SPANS)
        assert share(name, "sim") < 0.03
        assert traced[name]["per_layer"]["runtime.loop.self_s"] > 0
    assert share("sim_fig5", "obs", "prof") == 0
    assert share("sim_fig5_observed", "obs") > 0
    assert share("sim_fig5_observed", "prof") > 0


def _spin(duration_s: float) -> None:
    until = perf_counter() + duration_s
    while perf_counter() < until:
        pass


def _slow_encode(monkeypatch, per_call_s: float) -> None:
    from repro.mqtt.packets import Packet

    original = Packet.encode

    def encode(self):
        _spin(per_call_s)
        return original(self)

    monkeypatch.setattr(Packet, "encode", encode)


def _traced_self_times(name: str, seconds: float) -> tuple[dict[str, float], float, int]:
    tracing, record = _measure_with_spans(name, seconds)
    summary = tracing.summary()
    return (
        {span: summary[span]["self_s"] for span in SPAN_NAMES},
        record["window_wall_s"] / record["host_speed"],  # spans are wall time
        summary["mqtt.packet.encode"]["calls"],
    )


def _misattribution(monkeypatch, length: float) -> str | None:
    """One base run and one run with the injected busy-wait; ``None`` when
    the delta sits on ``mqtt.packet.encode`` alone, else what was off."""
    base, window, calls = _traced_self_times("sim_fig5", length)
    injected = 0.05 * window
    with monkeypatch.context() as patch:
        _slow_encode(patch, injected / calls)
        slow, _window, slow_calls = _traced_self_times("sim_fig5", length)
    assert slow_calls == calls
    others = [span for span in SPAN_NAMES if span != "mqtt.packet.encode"]
    speed = sum(base[span] for span in others) / sum(slow[span] for span in others)
    delta = {span: slow[span] * speed - base[span] for span in SPAN_NAMES}
    if abs(delta["mqtt.packet.encode"] - injected) > 0.01 * window:
        return f"encode moved {delta['mqtt.packet.encode']:.4f} s for {injected:.4f} s injected"
    worst = max(others, key=lambda span: abs(delta[span]))
    if abs(delta[worst]) > 0.01 * window:
        return f"{worst} moved {delta[worst]:.4f} s in a {window:.3f} s window"
    return None


def test_injected_slowdown_lands_on_its_layer(monkeypatch, seconds):
    """A busy-wait worth 5 % of the window inside ``Packet.encode`` shows
    on ``mqtt.packet.encode.self_s`` and nowhere else (± 1 % of the window).

    Two runs of one process differ by a common speed factor (every span a
    little faster or slower together); it is taken out through the spans
    the injection cannot touch before the deltas are read. A burst of host
    interference inside one of the two runs can still move a single span by
    more than 1 %, so the pair is repeated up to three times: a real
    misattribution fails every time, a burst does not.
    """
    failures = []
    for _attempt in range(3):
        problem = _misattribution(monkeypatch, 3 * seconds)
        if problem is None:
            return
        failures.append(problem)
    pytest.fail("; ".join(failures))


def test_compare_never_calls_a_slowdown_past_the_bound_same(monkeypatch, seconds):
    """``events_per_s`` may worsen by its bound before compare.py may say
    anything but ``same``; a slowdown past it must read ``worse`` or
    ``unresolved``. (The 5 % one above is inside the bound by definition:
    it is the traced run that catches it.)"""
    base = ledger.measure("sim_fig5", 1, seconds)
    # One encode per frame sent (set-up frames included, so the window's
    # share is a little under 0.6: well past the bound either way).
    encodes = base["counters"]["net.wlan.frames"]
    with monkeypatch.context() as patch:
        _slow_encode(patch, 0.6 * base["window_wall_s"] / encodes)
        slow = ledger.measure("sim_fig5", 1, seconds)

    def as_set(record):
        return {"kind": "untraced", "seed": 1, "seconds": seconds, "workloads": {"sim_fig5": record}}

    verdicts = {
        (workload, metric): result
        for workload, metric, result, _detail in compare.compare_sets(as_set(base), as_set(slow))
    }
    assert verdicts[("sim_fig5", "events_per_s")] in ("worse", "unresolved")
    # The program did the same simulated work: no exact result moved.
    assert verdicts[("sim_fig5", "flow_tail_ms")] == "same"
    assert all(metric in compare.END_TO_END for _workload, metric in verdicts)


def test_compare_verdicts():
    assert compare.verdict(100.0, 95.0, "higher", 0.08) == "same"
    assert compare.verdict(100.0, 90.0, "higher", 0.08) == "worse"
    assert compare.verdict(100.0, 110.0, "higher", 0.08) == "better"
    assert compare.verdict(1.0, 1.2, "lower", 0.1) == "worse"
    noisy = [80.0, 95.0, 100.0, 105.0, 120.0]
    assert compare.verdict(100.0, 90.0, "higher", 0.08, noisy, noisy) == "unresolved"
    apart = [v / 2 for v in noisy]
    assert compare.verdict(100.0, 50.0, "higher", 0.08, noisy, apart) == "worse"
