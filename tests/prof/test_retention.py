"""The profiler holds a window of intervals, not the whole run.

fig5 under the Pi calibration with observability, the profiler and the
SLO engine attached, as the perf ledger's ``sim_fig5_observed`` workload
builds it. A second, never-retiring :class:`Profiler` is fed by the same
hooks; it holds every grant, as the profiler did before retention.
"""

from __future__ import annotations

import pytest

from repro.bench.calibration import pi_cost_model
from repro.bench.scenarios import FIG5, build_fig5_testbed
from repro.obs.slo import enable_slo
from repro.prof import Profiler, enable_profiling


def _retained(profiler: Profiler) -> int:
    timelines = [profiler._wlan_timeline, *profiler._cpu_timeline.values()]
    return sum(len(timeline._starts) for timeline in timelines)


def _tee_hooks(runtime) -> Profiler:
    """Enable profiling; return a reference every interval hook also feeds."""
    profiler = enable_profiling(runtime)
    reference = Profiler(runtime)
    for hook in ("on_cpu_start", "on_airtime"):
        live, ref = getattr(profiler, hook), getattr(reference, hook)

        def both(*args, live=live, ref=ref):
            live(*args)
            ref(*args)

        setattr(profiler, hook, both)
    return reference


def _assert_same_answers(profiler, reference, measure_from):
    now = profiler.runtime.now
    windows = [(0.0, now), (measure_from, now), (now - 5.0, now)]
    assert profiler.cpu_nodes() == reference.cpu_nodes()
    for node in profiler.cpu_nodes():
        for a, b in windows:
            assert profiler.cpu_busy_between(node, a, b) == reference.cpu_busy_between(node, a, b)
        assert profiler.cpu_utilization(node) == reference.cpu_utilization(node)
        assert profiler.cpu_utilization(node, since=measure_from) == reference.cpu_utilization(
            node, since=measure_from
        )
    for a, b in windows:
        assert profiler.wlan_busy_between(a, b) == reference.wlan_busy_between(a, b)
    assert profiler.wlan_utilization() == reference.wlan_utilization()


@pytest.mark.slow
def test_retained_intervals_stay_flat_and_answers_stay_exact():
    references: list[Profiler] = []
    runtime, cluster = build_fig5_testbed(
        seed=1, observe=True, prepare=lambda bare: references.append(_tee_hooks(bare)),
        cost_model=pi_cost_model(),
    )
    runtime.tracer.enabled = False
    recipe = FIG5.recipe()
    enable_slo(runtime, recipe=recipe, cluster=cluster)
    cluster.submit(recipe)
    cluster.settle(2.0)
    (reference,) = references
    profiler = runtime.prof
    measure_from = runtime.now
    profiler.register_origin(measure_from)

    runtime.run(until=measure_from + 60.0)
    early, reference_early = _retained(profiler), _retained(reference)
    _assert_same_answers(profiler, reference, measure_from)
    runtime.run(until=measure_from + 240.0)
    late = _retained(profiler)
    _assert_same_answers(profiler, reference, measure_from)

    # The reference grows with the run (102 790 -> 398 666 intervals at
    # seed 1); what is retained covers the SLO's 5 s lookback (≈ 8 200).
    assert _retained(reference) > 3 * reference_early
    assert abs(late - early) < 0.1 * early
    assert late <= 20_000
    with pytest.raises(ValueError):  # behind the horizon, not an origin
        profiler.cpu_busy_between("pi-analysis", 1.0, runtime.now)
