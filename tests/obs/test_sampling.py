"""Head-sampled spans: which traces exist, and what an untraced record costs.

A sensor opens a root span for its sample of ordinal ``n`` only when
``n % sample_every == 0``. These tests pin the consequences: the sampled
set is a pure function of each sensor's own sample sequence (the same
across runs and under tie-break perturbation), every sampled trace is a
well-formed tree, an unsampled record carries no ``obs`` header on the
wire, and a run with observability off is untouched. ``run`` observes at
stride 1, so these runs install the default stride in ``prepare`` first;
the stride-1 side (every trace, the digests of the commit before
sampling) is pinned by the ``observe`` rows of
``tests/integration/test_pipeline_digests.py``.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict

import pytest

from repro.bench.scenarios import FIG5, build_fig5_testbed
from repro.chaos import run_scenario
from repro.errors import ConfigurationError
from repro.obs import SAMPLE_EVERY, check_span_integrity, enable_observability, spans_from_tracer
from repro.runtime.node import Node
from repro.runtime.sim import SimRuntime
from repro.scenario import run

#: The zero-cost fig5 build (fast, and what the golden trace fingerprints).
FIG5_ZERO_COST = dataclasses.replace(FIG5, build=build_fig5_testbed)
DURATION_S = 10.0


def _fig5(prepare=None, **flags):
    return run(FIG5_ZERO_COST, seed=55, duration_s=DURATION_S, prepare=prepare, **flags)


def _default_stride(then=None):
    """A ``prepare`` hook that installs observability at the default
    stride on the bare runtime; ``run``'s own stride-1 install then keeps
    it (:func:`enable_observability` is idempotent)."""

    def prepare(runtime):
        if then is not None:
            then(runtime)
        enable_observability(runtime)

    return prepare


def _sampled_fig5(then=None):
    return _fig5(_default_stride(then), observe=True)


def _sampled(tracer) -> list[str]:
    """Sample ids whose sensor opened a trace, in trace order."""
    return [s.fields["sample"] for s in spans_from_tracer(tracer) if s.name == "sense"]


def _expected_sampled(tracer, stride: int) -> set[str]:
    """Every ``stride``-th sample of each sensor, counted from its first."""
    taken: dict[tuple[str, str], int] = defaultdict(int)
    expected = set()
    for record in tracer.select("sensor.sample"):
        key = (record.source, record["device"])
        if taken[key] % stride == 0:
            expected.add(record["sample_id"])
        taken[key] += 1
    return expected


def test_default_stride_is_a_power_of_two_above_one():
    assert SAMPLE_EVERY > 1 and SAMPLE_EVERY & (SAMPLE_EVERY - 1) == 0


def test_stride_must_be_positive():
    with pytest.raises(ConfigurationError):
        enable_observability(SimRuntime(seed=0), sample_every=0)


@pytest.mark.slow
def test_sampled_set_is_every_strideth_sample_of_each_sensor():
    tracer = _sampled_fig5().tracer
    sampled = _sampled(tracer)
    assert len(sampled) == len(set(sampled))
    assert set(sampled) == _expected_sampled(tracer, SAMPLE_EVERY)
    assert 0 < len(sampled) < len(tracer.select("sensor.sample")) / (SAMPLE_EVERY - 1)


@pytest.mark.slow
def test_sampled_set_is_identical_across_runs_and_under_perturbation():
    """No RNG and no global counter decide: two runs, and runs whose
    equal-time events are reordered, trace the same samples."""
    base = sorted(_sampled(_sampled_fig5().tracer))
    assert sorted(_sampled(_sampled_fig5().tracer)) == base
    for seed in (1, 2):
        perturbed = _sampled_fig5(lambda runtime, s=seed: runtime.kernel.perturb_ties(s))
        assert sorted(_sampled(perturbed.tracer)) == base
    chaos = [sorted(_sampled(run_scenario(
        "partition_heal", seed=7, observe=True, prepare=_default_stride()
    ).tracer))]
    chaos.append(sorted(_sampled(run_scenario(
        "partition_heal", seed=7, observe=True,
        prepare=_default_stride(lambda runtime: runtime.kernel.perturb_ties(3)),
    ).tracer)))
    assert chaos[0] == chaos[1] and chaos[0]


@pytest.mark.slow
@pytest.mark.parametrize("name", ["fig5", "failover"])
def test_every_sampled_trace_is_a_complete_tree(name):
    out = (
        _sampled_fig5()
        if name == "fig5"
        else run_scenario(name, seed=0, observe=True, prepare=_default_stride())
    )
    assert out.runtime.obs.sample_every == SAMPLE_EVERY
    spans = spans_from_tracer(out.tracer)
    assert check_span_integrity(spans) == []
    roots = {s.trace_id: s for s in spans if not s.parent_id}
    # A flow trace starts at a sampled sense span; the rest are the control
    # plane's own roots (migrations), which sampling leaves alone.
    assert {r.name for r in roots.values()} <= {"sense", "migrate"}
    assert {s.trace_id for s in spans} == set(roots)
    sampled = {r.trace_id for r in roots.values() if r.name == "sense"}
    hops = {s.trace_id for s in spans if s.parent_id and s.trace_id in sampled}
    assert len(hops) > 0.9 * len(sampled)  # a sampled sample is followed past its sensor


@pytest.mark.slow
def test_no_unsampled_publish_carries_an_obs_header(monkeypatch):
    """Checked on the bytes each node sends: a flow publish has an ``obs``
    key exactly when its record's sample opened a trace."""
    sent: list[bytes] = []
    real_send = Node.send

    def capture(self, service, destination, payload):
        if b'"ifot/flow/' in payload:
            sent.append(bytes(payload))
        return real_send(self, service, destination, payload)

    monkeypatch.setattr(Node, "send", capture)
    tracer = _sampled_fig5().tracer
    traced = set(_sampled(tracer))
    with_header = without = 0
    for data in sent:
        packet = json.loads(data)
        if packet.get("_t") != "publish" or not packet["topic"].startswith("ifot/flow/"):
            continue
        obs = "obs" in (packet.get("headers") or {})
        assert (b'"obs"' in data) == obs
        # A merged payload carries its oldest contributor's id while its
        # context may come from another contributor: check unmerged ones.
        if not packet["payload"].get("merged"):
            assert obs == (packet["payload"]["id"] in traced), packet["payload"]["id"]
        with_header += obs
        without += not obs
    assert with_header and without > with_header


@pytest.mark.slow
def test_observability_off_opens_no_span_and_sends_no_header(monkeypatch):
    sent: list[bytes] = []
    real_send = Node.send

    def capture(self, service, destination, payload):
        sent.append(bytes(payload))
        return real_send(self, service, destination, payload)

    monkeypatch.setattr(Node, "send", capture)
    out = _fig5(slo=True)
    assert out.runtime.obs is None and not out.tracer.select("obs.span")
    assert sent and not any(b'"obs"' in data for data in sent)
