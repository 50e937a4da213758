"""Perturbation replay: demonstrate races as observable divergence.

The happens-before analysis (:mod:`repro.san.recorder`) reasons about
*potential* reorderings; replay makes them real. A scenario is re-run
with :meth:`repro.sim.SimKernel.perturb_ties` installed under a handful
of seeds — each seed is a different but causally valid tie-breaking of
equal-timestamp events — and the traces are fingerprinted with a
*schedule-stable digest*:

* records are rendered by :func:`repro.sim.trace.render_record`, the
  line :func:`repro.sim.trace.trace_digest` hashes;
* but within each identical timestamp the rendered lines are **sorted**
  before hashing.

Sorting inside an instant makes the digest invariant to the one thing a
benign tie-break permutation is allowed to change — the emission order of
records *within* an instant — while staying sensitive to everything a
real race changes: record content, timing, count, or records moving
across instants. A digest mismatch against the unperturbed run is
therefore an observable schedule race (rule ``SAN010``), reproducible
from the perturbation seed.
"""

from __future__ import annotations

import hashlib

from repro.sim.trace import Tracer, render_record

__all__ = ["schedule_stable_digest"]


def schedule_stable_digest(tracer: Tracer) -> str:
    """SHA-256 of the trace, insensitive to within-instant record order."""
    digest = hashlib.sha256()
    instant: list[str] = []
    instant_time: float | None = None

    def flush() -> None:
        for line in sorted(instant):
            digest.update(line.encode())
        instant.clear()

    for record in tracer:
        if record.time != instant_time:
            flush()
            instant_time = record.time
        instant.append(f"{render_record(record)}\n")
    flush()
    return digest.hexdigest()
