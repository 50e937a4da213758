"""Deterministic sim-time profiling: resource accounting over virtual time.

PR 2's observability layer answers *how long* a flow took; this package
answers *which resource the time was spent on*. It has two halves (see
``docs/ARCHITECTURE.md`` — "Profiling"):

* :mod:`repro.prof.profiler` — the :class:`Profiler` attached to a
  runtime as ``runtime.prof``, fed by hooks in the CPU queues
  (:mod:`repro.sim.resources`), the WLAN medium (:mod:`repro.net.wlan`)
  and the kernel (handler brackets via a :class:`~repro.sim.kernel.KernelMonitor`);
  it accumulates a node → domain → operation busy-time profile plus
  utilization timelines sampled into the trace on a fixed sim-time
  cadence (kernel epilogues, so samples are schedule-invariant);
* :mod:`repro.prof.report` — exports: the "where did the millisecond
  go" text tree, folded-stack flamegraph lines, Chrome ``trace_event``
  counter tracks, a JSON dict, and a profile digest for regression
  gating.

Like ``runtime.obs`` and ``runtime.san``, profiling is strictly opt-in:
``runtime.prof`` is ``None`` by default and every hook site guards on
that, so the disabled cost is one attribute load per hook.
"""

from __future__ import annotations

from repro.prof.profiler import (
    PROF_SAMPLE_EVENT,
    BusyIntegrator,
    Profiler,
    enable_profiling,
)
from repro.prof.report import (
    chrome_counter_events,
    folded_stacks,
    format_profile_tree,
    profile_digest,
    profile_to_dict,
    utilization_rows,
)

__all__ = [
    "PROF_SAMPLE_EVENT",
    "BusyIntegrator",
    "Profiler",
    "enable_profiling",
    "chrome_counter_events",
    "folded_stacks",
    "format_profile_tree",
    "profile_digest",
    "profile_to_dict",
    "utilization_rows",
]
