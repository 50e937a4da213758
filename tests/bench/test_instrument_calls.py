"""What the profiler costs, as counts (no timer, so no host noise).

fig5 under the Pi calibration at seed 1, built as the perf ledger's
``sim_fig5`` builds it, with and without the profiler: a 10 sim-s warm-up,
then a 60 sim-s window in which every Python-level call is counted
(``sys.setprofile``). A grant is recorded into the profiler's storage by
its CPU or WLAN site and a handler is counted by the kernel, none of them
with a Python call, so what the profiler adds is its sample ticks: no
frame of ``repro/prof/`` runs per CPU job, WLAN frame or kernel event.
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.bench.calibration import pi_cost_model
from repro.bench.scenarios import FIG5, build_fig5_testbed
from repro.prof import enable_profiling

WARM_UP_S = 10.0
WINDOW_S = 60.0
#: Python calls the profiler adds to the window: 3 062 measured (1 700 412
#: against 1 697 350 plain; CPython 3.11.7) — the 60 ticks' reads of each
#: busy timeline's running total, and one first-seen job label — pinned at
#: x 1.08. Each grant cost three to six calls and each event one while the
#: profiler was fed through hook calls and a kernel monitor: 647 334 added.
ADDED_CALLS = 3_306
#: Calls any one ``repro/prof/`` function may make per sample tick: the
#: busiest, ``busy_until``, reads each busy timeline once a tick — 8 at
#: fig5's 7 CPUs and one channel — pinned at x 1.08.
PER_TICK = 9


def _totals(runtime) -> tuple[int, int, int]:
    """CPU jobs completed, WLAN frames sent and kernel events run so far."""
    jobs = sum(node.cpu.stats.jobs_completed for node in runtime.nodes.values())
    return jobs, runtime.wlan.frames_transmitted, runtime.kernel.events_processed


def _window(profiled: bool):
    """The window's Python calls, its ``repro/prof/`` frames by function,
    its (jobs, frames, events) and its sample ticks."""
    runtime, cluster = build_fig5_testbed(
        seed=1, prepare=enable_profiling if profiled else None, cost_model=pi_cost_model()
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
    plain_calls, plain_frames, (jobs, frames, events), _ = _window(profiled=False)
    calls, prof_frames, work, ticks = _window(profiled=True)
    assert plain_frames == {}
    # The same simulation, but for the ticks' own events.
    assert work == (jobs, frames, events + ticks) and ticks == 60
    assert calls - plain_calls <= ADDED_CALLS, calls - plain_calls
    # Any frame run per job, WLAN frame or event would outnumber the bound.
    assert PER_TICK * ticks < min(jobs, frames, events) / 10
    busiest, count = prof_frames.most_common(1)[0]
    assert count <= PER_TICK * ticks, (busiest, count)
