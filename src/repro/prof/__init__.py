"""Deterministic sim-time profiling: which resource the virtual time went to.

:mod:`repro.prof.profiler` holds the :class:`Profiler` (``runtime.prof``):
a node → domain → operation busy-time profile, the kernel's handler counts
and utilization timelines read from the CPUs' and the channel's own totals.
:mod:`repro.prof.report` exports it (text tree, folded stacks, Chrome
counters, JSON, digest). Opt-in like ``runtime.obs``: off, a hook site
costs one attribute load; on, a grant or a kernel event costs no Python
call (see ``docs/ARCHITECTURE.md`` — "Profiling").
"""

from __future__ import annotations

from repro.prof.profiler import (
    PROF_SAMPLE_EVENT,
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
    "Profiler",
    "enable_profiling",
    "chrome_counter_events",
    "folded_stacks",
    "format_profile_tree",
    "profile_digest",
    "profile_to_dict",
    "utilization_rows",
]
