"""Schedule sanitizer: happens-before race detection + perturbation replay.

The determinism linter (:mod:`repro.lint`) catches *sources* of
nondeterminism statically; this package catches *schedule-order races*
dynamically. A race here is not a threading bug — the kernel is
single-threaded — but a **hidden ordering dependency**: two events at the
same virtual instant whose relative order is a FIFO accident, yet whose
order changes program state. Such code is deterministic today and silently
changes behaviour the day an unrelated edit perturbs scheduling order.

Two complementary passes (see :mod:`repro.san.recorder` and
:mod:`repro.san.replay`), surfaced by ``repro san`` and gated in CI:

1. **Happens-before analysis** — instrument the kernel and every tracked
   state cell, report unordered conflicting same-instant accesses
   (``SAN001``/``SAN002``).
2. **Perturbation replay** — re-run the scenario under seeded
   equal-timestamp tie-breaking and diff schedule-stable trace digests;
   divergence (``SAN010``) is a race made observable.

Benign-by-construction cells are annotated ``# repro: san-ok[RULE]`` at
their declaration (:mod:`repro.san.suppress`).
"""

from repro.san.recorder import RaceFinding, SimSan
from repro.san.replay import schedule_stable_digest
from repro.san.rules import SAN_RULES
from repro.san.runner import (
    SanReport,
    ScenarioSanResult,
    run_sanitizer,
    sanitize,
    sanitize_scenario,
)
from repro.san.suppress import SanOkRegistry

__all__ = [
    "RaceFinding",
    "SAN_RULES",
    "SanOkRegistry",
    "SanReport",
    "ScenarioSanResult",
    "SimSan",
    "run_sanitizer",
    "sanitize",
    "sanitize_scenario",
    "schedule_stable_digest",
]
