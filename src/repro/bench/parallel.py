"""Parallel multi-seed runner: one worker process per seed, merged deterministically.

The simulations themselves are single-threaded and deterministic, so the
only safe parallelism is *across* runs: each seed is an independent
simulation executed in its own worker process, and the merged result is
a pure function of the (scenario, seeds) request — byte-identical
whether it ran serially or on any number of workers.

Two contracts make that safe:

* **Workers get a scenario by name.** The one task, :func:`seed_row`, is
  a module-level function taking the registry name and a seed and
  returning a JSON-able summary dict. Neither is a style preference:
  worker processes receive the function by pickled reference and resolve
  the name in their own interpreter, so closures, lambdas and
  :class:`~repro.scenario.Scenario` objects never cross the process
  boundary.
* **Merging is keyed by seed.** Results are reassembled in the caller's
  seed order regardless of worker completion order, and a worker failure
  (an exception *or* a dead process) is a hard :class:`ParallelRunError`
  naming the seed — a merged result never silently omits a seed.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Any, Sequence

from repro.errors import ConfigurationError, IFoTError

__all__ = [
    "ParallelRunError",
    "merge_digest",
    "run_parallel",
    "seed_row",
]


class ParallelRunError(IFoTError):
    """A worker process failed; the merged result would be incomplete."""


def seed_row(
    name: str, seed: int, duration_s: float | None = None, profile: bool = False
) -> dict[str, Any]:
    """Run scenario ``name`` at one seed; summarize the run.

    A fault scenario runs through
    :func:`~repro.chaos.scenarios.run_scenario`, and its row carries that
    run's invariant verdict; with ``profile`` the row carries the profile
    fingerprint too.
    """
    from repro.chaos.scenarios import run_scenario
    from repro.registry import resolve
    from repro.scenario import run

    scenario = resolve(name)
    if duration_s is not None:
        scenario = replace(scenario, duration_s=duration_s)
    if scenario.fault_plan is None:
        outcome = run(scenario, seed=seed, profile=profile)
    else:
        outcome = run_scenario(scenario, seed=seed, profile=profile)
    row: dict[str, Any] = {
        "scenario": scenario.name,
        "seed": seed,
        "duration_s": outcome.duration_s,
        "trace_records": outcome.trace_records,
        "trace_digest": outcome.trace_digest,
    }
    if outcome.report is not None:
        row["faults_applied"] = outcome.faults_applied
        row["invariants_ok"] = outcome.report.ok
    if profile:
        from repro.prof import profile_digest

        profiler = outcome.runtime.prof
        row["events_executed"] = profiler.events_profiled
        row["profile_digest"] = profile_digest(profiler)
        row["wlan_utilization"] = round(profiler.wlan_utilization(), 9)
    return row


def run_parallel(
    name: str,
    seeds: Sequence[int],
    workers: int = 1,
    duration_s: float | None = None,
    profile: bool = False,
) -> list[dict[str, Any]]:
    """Run scenario ``name`` once per seed and merge the rows keyed by seed.

    ``workers <= 1`` runs serially in-process (the reference execution);
    otherwise seeds are distributed over a pool of worker processes. The
    returned list follows the caller's seed order exactly, so serial and
    parallel runs of the same request are byte-identical.

    Raises :class:`ParallelRunError` if any worker raises or dies — the
    merged list never silently drops a seed.
    """
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError(f"duplicate seeds in {seeds!r}")
    if workers <= 1:
        return [seed_row(name, seed, duration_s, profile) for seed in seeds]
    results: dict[int, dict[str, Any]] = {}
    with ProcessPoolExecutor(max_workers=min(workers, len(seeds) or 1)) as pool:
        futures = {
            seed: pool.submit(seed_row, name, seed, duration_s, profile)
            for seed in seeds
        }
        wait(futures.values(), return_when=FIRST_EXCEPTION)
        for seed, future in futures.items():
            try:
                results[seed] = future.result()
            except BrokenProcessPool as exc:
                raise ParallelRunError(
                    f"worker process for seed {seed} died: {exc}"
                ) from exc
            except Exception as exc:
                raise ParallelRunError(
                    f"scenario {name!r} failed for seed {seed}: {exc}"
                ) from exc
    return [results[seed] for seed in seeds]


def merge_digest(results: list[dict[str, Any]]) -> str:
    """Canonical digest of a merged multi-seed result list.

    Serial and parallel runs of the same request produce the same digest;
    tests and the CLI use it as the one-line equality check.
    """
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
