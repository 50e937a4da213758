"""What the instruments cost, as counts (no timer, so no host noise).

fig5 under the Pi calibration at seed 1, built as the perf ledger's
``sim_fig5`` builds it, plain, profiled and observed: a 10 sim-s warm-up,
then a 60 sim-s window in which every Python-level call is counted
(``sys.setprofile``). A CPU or WLAN site charges a completed grant into
the profiler's cells, and the kernel appends each handler to a list the
profiler folds per tick, none of them with a Python call, so what the
profiler adds is its sample ticks: no frame of ``repro/prof/`` runs per
CPU job, WLAN frame or kernel event.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import cache

from repro.bench.calibration import pi_cost_model
from repro.bench.scenarios import FIG5, build_fig5_testbed
from repro.obs import enable_observability
from repro.prof import enable_profiling

WARM_UP_S = 10.0
WINDOW_S = 60.0
#: Python calls the profiler adds to the window: 2 762 measured (1 700 112
#: against 1 697 350 plain; CPython 3.11.7) — the 60 ticks' reads of each
#: CPU's and the channel's running totals, the tally folds, and one
#: first-seen job label — pinned at x 1.08. It was 3 062 while each tick
#: folded a log of every grant; 647 334 while each grant cost three to six
#: calls and each event one, through hook calls and a kernel monitor.
ADDED_CALLS = 2_982
#: Calls any one ``repro/prof/`` function may make per sample tick: the
#: busiest, ``_cpu_read`` and ``_cpu_total``, read each of fig5's 7 CPUs
#: once a tick (x 1.08, rounded down).
PER_TICK = 7
#: Python calls observability adds to the window at the default stride (one
#: sensor trace in 8) with metrics on: 155 646 measured (1 852 996 against
#: 1 697 350 plain) — per record its deferred traced-processing frame, two
#: clock reads and one histogram add; per sampled span its ids, context and
#: record — pinned at x 1.08. It was 219 443 while Welford's update, the
#: subscriber's header read, the context's constructor and the node's
#: incarnation were calls of their own.
OBS_ADDED_CALLS = 168_097


def _totals(runtime) -> tuple[int, int, int]:
    """CPU jobs completed, WLAN frames sent and kernel events run so far."""
    jobs = sum(node.cpu.stats.jobs_completed for node in runtime.nodes.values())
    return jobs, runtime.wlan.frames_transmitted, runtime.kernel.events_processed


@cache
def _window(instrument: str):
    """The window's Python calls, its ``repro/prof/`` frames by function,
    its (jobs, frames, events) and its sample ticks; ``instrument`` is
    ``"plain"``, ``"prof"`` or ``"obs"``."""
    prepare = {"plain": None, "prof": enable_profiling, "obs": enable_observability}
    runtime, cluster = build_fig5_testbed(
        seed=1, prepare=prepare[instrument], cost_model=pi_cost_model()
    )
    runtime.tracer.enabled = False
    cluster.submit(FIG5.recipe())
    cluster.settle(2.0)
    runtime.run(until=runtime.now + WARM_UP_S)
    calls = 0
    prof_frames: Counter[str] = Counter()

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1
            code = frame.f_code
            if "/repro/prof/" in code.co_filename.replace("\\", "/"):
                prof_frames[code.co_name] += 1

    profiled = runtime.prof is not None
    before = _totals(runtime)
    samples = runtime.prof.samples if profiled else 0
    sys.setprofile(count)
    try:
        runtime.run(until=runtime.now + WINDOW_S)
    finally:
        sys.setprofile(None)
    work = tuple(after - at for after, at in zip(_totals(runtime), before))
    ticks = runtime.prof.samples - samples if profiled else 0
    return calls, prof_frames, work, ticks


def test_profiler_adds_only_its_sample_ticks():
    plain_calls, plain_frames, (jobs, frames, events), _ = _window("plain")
    calls, prof_frames, work, ticks = _window("prof")
    assert plain_frames == {}
    # The same simulation, but for the ticks' own events.
    assert work == (jobs, frames, events + ticks) and ticks == 60
    assert calls - plain_calls <= ADDED_CALLS, calls - plain_calls
    # Any frame run per job, WLAN frame or event would outnumber the bound.
    assert PER_TICK * ticks < min(jobs, frames, events) / 10
    busiest, count = prof_frames.most_common(1)[0]
    assert count <= PER_TICK * ticks, (busiest, count)


def test_observability_adds_its_calls_within_the_pin():
    plain_calls, _frames, _work, _ticks = _window("plain")
    calls, prof_frames, _work, _ticks = _window("obs")
    assert prof_frames == {}
    assert calls - plain_calls <= OBS_ADDED_CALLS, calls - plain_calls
