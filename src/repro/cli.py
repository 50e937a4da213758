"""Command-line interface: ``python -m repro <command>``.

Every scenario argument (``chaos``, ``heal``, ``san``, ``prof``, ``slo``,
``trace --pipeline``, ``lint --recipe``) is a name from
:mod:`repro.registry`, run through :func:`repro.scenario.run`.

Commands
--------
``paper-exp``
    Run the paper's evaluation (Tables II/III) on the simulated testbed
    and print the paper-vs-measured comparison.
``validate <recipe-file>``
    Parse a recipe (``.recipe`` DSL or ``.json``), validate the task
    graph, and print the execution plan: stages, sub-tasks, and a dry-run
    assignment over a hypothetical homogeneous cluster.
``fmt <recipe-file>``
    Canonically re-format a recipe (DSL in, DSL out; JSON in, DSL out).
``operators``
    List the operators recipes can use.
``chaos``
    Run a fault-injection scenario (or all of them) on the simulated
    chaos testbed and print the end-to-end invariant report.
``trace``
    Run an observed pipeline (or load a trace dump) and print the
    per-stage latency breakdown reconstructed from its span trees;
    optionally export the trace as JSONL and/or Chrome trace_event JSON.
``lint``
    Static analysis: run the determinism linter over Python sources
    and/or the recipe static checker over a recipe file. ``--strict``
    promotes warnings to failures; ``--format json`` emits a machine
    report. Exit code 1 when blocking findings remain.
``prof``
    Run a scenario under the sim-time profiler and print the
    "where did the millisecond go" tree (or folded stacks / JSON);
    optionally export folded stacks and Chrome counter tracks. With
    ``--scenario paper --rates`` prints a per-rate utilization table —
    the paper's saturation story in one screen.
``bench``
    Continuous benchmarking: run named benchmarks, write schema-versioned
    ``BENCH_<name>.json`` records, and with ``--compare <dir>`` gate the
    fresh records against a committed baseline (byte-exact on sim
    metrics, tolerance-banded on wall throughput). Exit code 1 on
    regression — this is the CI gate.
``slo``
    Run a scenario with the online SLO engine attached and print the
    conformance report: per-flow latency sketches vs declared deadlines,
    the burn-rate alert timeline (sim-time anchors), drift findings and
    SLO3xx diagnostics. ``--strict`` fails on warnings too;
    ``--expect-burn`` inverts the gate for chaos acceptance runs (exit 0
    iff a page alert fired).
``top``
    Live console for a running real backend: polls the scrape endpoint
    served by ``AsyncioRuntime.serve_metrics`` and redraws a top-style
    view of flows, node watermarks and hot series.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import (
    PAPER_TABLE2_TRAINING,
    PAPER_TABLE3_PREDICTING,
    format_comparison_table,
    run_rate_sweep,
)
from repro.bench.reporting import write_results_csv, write_results_json
from repro.bench.calibration import PAPER_RATES_HZ
from repro.chaos import run_scenario
from repro.core.assignment import ModuleInfo, TaskAssignment
from repro.core.dsl import format_recipe, parse_recipe
from repro.core.operators import registered_operators
from repro.core.recipe import Recipe
from repro.core.splitter import RecipeSplit
from repro.errors import ConfigurationError, IFoTError
from repro.registry import SCENARIOS, UnknownScenarioError, fault_scenarios, resolve
from repro.scenario import Run, Scenario, run

__all__ = ["main"]


def _load_recipe(path: Path) -> Recipe:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return Recipe.from_json(text)
    return parse_recipe(text)


def _list_scenarios(names: list[str]) -> int:
    width = max(len(name) for name in names)
    for name in names:
        print(f"{name:<{width}}  {SCENARIOS[name].description}")
    return 0


def _run(
    args: argparse.Namespace, name: str, rate_hz: float | None, **instruments: bool
) -> "tuple[Run, str]":
    """Resolve and run a scenario for ``trace`` / ``prof`` / ``slo``;
    returns the run and its label. ``--seed`` / ``--duration`` default to
    the scenario's own, ``--rate`` selects the variant at that rate."""
    scenario = resolve(name)
    if rate_hz is not None:
        if scenario.at_rate is None:
            raise ConfigurationError(
                f"scenario {scenario.name!r} declares no sensing rate "
                "(--rate/--rates do not apply)"
            )
        scenario = scenario.at_rate(rate_hz)
    print(f"running {scenario.description}...", file=sys.stderr)
    outcome = run(scenario, seed=args.seed, duration_s=args.duration, **instruments)
    return outcome, f"{name} (seed {outcome.seed}, {outcome.duration_s:g}s)"


def _recipe_source(name_or_path: str) -> "tuple[Recipe, Scenario | None]":
    """Resolve ``--recipe`` to a recipe and, when it names one, the
    scenario that declares it (a recipe file has none)."""
    path = Path(name_or_path)
    if name_or_path not in SCENARIOS and path.is_file():
        return _load_recipe(path), None
    scenario = resolve(name_or_path)
    return scenario.recipe(), scenario


def _cmd_paper_exp(args: argparse.Namespace) -> int:
    rates = (
        tuple(float(r) for r in args.rates.split(","))
        if args.rates
        else PAPER_RATES_HZ
    )
    print(
        f"running the Fig. 7/9 testbed at rates {[int(r) for r in rates]} Hz "
        f"(duration {args.duration}s, seed {args.seed})..."
    )
    results = run_rate_sweep(rates, duration_s=args.duration, seed=args.seed)
    print()
    print(
        format_comparison_table(
            results,
            PAPER_TABLE2_TRAINING,
            "training",
            "Table II — sensing->training latency (ms)",
        )
    )
    print()
    print(
        format_comparison_table(
            results,
            PAPER_TABLE3_PREDICTING,
            "predicting",
            "Table III — sensing->predicting latency (ms)",
        )
    )
    if args.csv:
        print(f"wrote {write_results_csv(results, args.csv)}")
    if args.json:
        print(f"wrote {write_results_json(results, args.json)}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    path = Path(args.recipe)
    recipe = _load_recipe(path)
    subtasks = RecipeSplit().split(recipe)
    print(f"recipe {recipe.name!r}: OK")
    print(f"  tasks: {len(recipe.tasks)}, sub-tasks after split: {len(subtasks)}")
    print(f"  streams: {', '.join(recipe.streams) or '(none)'}")
    for i, stage in enumerate(recipe.stages()):
        print(f"  stage {i}: {', '.join(stage)}")
    if args.modules > 0:
        capabilities = {cap for s in subtasks for cap in s.capabilities}
        pins = {s.pin_to for s in subtasks if s.pin_to}
        modules = [
            ModuleInfo(name, capabilities=set(capabilities))
            for name in sorted(pins)
        ]
        modules += [
            ModuleInfo(f"module-{i}", capabilities=set(capabilities))
            for i in range(args.modules)
        ]
        assignment = TaskAssignment().assign(subtasks, modules)
        print(f"  dry-run assignment over {len(modules)} modules:")
        for subtask_id in sorted(assignment.placements):
            print(f"    {subtask_id} -> {assignment.placements[subtask_id]}")
    return 0


def _cmd_fmt(args: argparse.Namespace) -> int:
    recipe = _load_recipe(Path(args.recipe))
    sys.stdout.write(format_recipe(recipe))
    return 0


def _cmd_operators(_args: argparse.Namespace) -> int:
    for name in registered_operators():
        print(name)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.list:
        return _list_scenarios(fault_scenarios())
    names = (
        [resolve(args.scenario, faults=True).name]
        if args.scenario
        else fault_scenarios()
    )
    if args.seeds:
        return _chaos_multi_seed(names, args)
    all_ok = True
    for name in names:
        result = run_scenario(name, seed=args.seed)
        all_ok = all_ok and result.report.ok
        print(
            f"scenario {result.name} (seed {result.seed}, "
            f"{result.duration_s:g}s, {result.faults_applied} faults, "
            f"{result.trace_records} trace records)"
        )
        print(f"  trace digest: {result.trace_digest[:16]}")
        for line in result.report.render().splitlines():
            print(f"  {line}")
        if args.recover:
            from repro.core.healing import recovery_report

            print()
            for line in recovery_report(result.tracer).render().splitlines():
                print(f"  {line}")
        print()
    return 0 if all_ok else 1


def _chaos_multi_seed(names: list[str], args: argparse.Namespace) -> int:
    """Fan one or more scenarios out over a seed sweep (one process per seed)."""
    from repro.bench.parallel import merge_digest, run_parallel

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    all_ok = True
    for name in names:
        rows = run_parallel(name, seeds, workers=args.workers)
        print(
            f"scenario {name}: {len(rows)} seeds on "
            f"{max(1, args.workers)} worker(s)"
        )
        for row in rows:
            ok = bool(row["invariants_ok"])
            all_ok = all_ok and ok
            print(
                f"  seed {row['seed']}: {row['trace_records']} trace records, "
                f"{row['faults_applied']} faults, "
                f"digest {row['trace_digest'][:16]}, "
                f"{'OK' if ok else 'FAIL'}"
            )
        print(f"  merged digest: {merge_digest(rows)[:16]}")
    return 0 if all_ok else 1


def _cmd_heal(args: argparse.Namespace) -> int:
    """Run one scenario and narrate how the control plane healed it."""
    from repro.core.healing import recovery_report

    result = run_scenario(args.scenario, seed=args.seed)
    print(
        f"scenario {result.name} (seed {result.seed}, "
        f"{result.duration_s:g}s, {result.faults_applied} faults)"
    )
    print(f"  trace digest: {result.trace_digest[:16]}")
    print()
    assert result.tracer is not None
    print(recovery_report(result.tracer).render())
    print()
    print(result.report.render())
    return 0 if result.report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_trace_breakdown
    from repro.obs import spans_from_tracer, to_chrome_trace
    from repro.sim.trace import Tracer

    scenario = None
    if args.input:
        tracer = Tracer.from_jsonl(Path(args.input))
        title = f"Latency breakdown — {args.input}"
    else:
        outcome, label = _run(args, args.pipeline, args.rate, observe=True)
        tracer, scenario = outcome.runtime.tracer, outcome.scenario
        title = f"Latency breakdown — {label}"
    spans = spans_from_tracer(tracer)
    print()
    if args.summary:
        from repro.obs import flow_latency_summary, stage_breakdown
        from repro.obs.slo import format_flow_summary

        # Deadlines for the verdict column: --recipe, else the scenario just run.
        recipe = None
        if args.recipe:
            recipe = _recipe_source(args.recipe)[0]
        elif scenario is not None:
            recipe = scenario.recipe()
        deadlines_ms = {
            task_id: task.deadline_ms
            for task_id, task in (recipe.tasks.items() if recipe else ())
            if task.deadline_ms is not None
        }
        print(title)
        print(
            format_flow_summary(
                flow_latency_summary(stage_breakdown(spans)), deadlines_ms
            )
        )
    else:
        print(format_trace_breakdown(tracer, title=title))
    if args.jsonl:
        count = tracer.to_jsonl(args.jsonl)
        print(f"wrote {count} trace records to {args.jsonl}")
    if args.chrome:
        chrome = to_chrome_trace(spans)
        Path(args.chrome).write_text(  # repro: lint-ok[DET005] - CLI export
            json.dumps(chrome, sort_keys=True), encoding="utf-8"
        )
        print(
            f"wrote {len(chrome['traceEvents'])} trace events to {args.chrome} "
            "(load in chrome://tracing or Perfetto)"
        )
    return 0 if spans else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        LintRun,
        analyze_state_soundness,
        check_cost_drift,
        check_rate_feasibility,
        check_recipe,
        check_recipe_payloads,
        lint_paths,
        render_json,
        render_sarif,
        render_text,
    )

    if args.catalog:
        from repro.lint.catalog import render_catalog_text

        print(render_catalog_text())
        return 0
    if not args.paths and not args.recipe and not args.calibrate:
        print(
            "error: nothing to lint (give paths and/or --recipe/--calibrate)",
            file=sys.stderr,
        )
        return 2
    if (args.deadline or args.validate) and not args.recipe:
        print(
            "error: --deadline/--validate analyze a recipe (add --recipe)",
            file=sys.stderr,
        )
        return 2
    rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()] or None
    run = LintRun()
    if args.paths:
        run.merge(lint_paths(args.paths, rule_ids=rule_ids))
        if args.dataflow:
            run.merge(analyze_state_soundness(args.paths))
    if args.recipe:
        # A scenario brings the channel keys of the devices its testbed
        # attaches and the calibration its deadlines assume; a recipe file
        # gets open sensor schemas and the default context.
        recipe, scenario = _recipe_source(args.recipe)
        origin = scenario.recipe_origin if scenario else str(Path(args.recipe))
        checks = (
            check_recipe(recipe)
            + check_rate_feasibility(recipe)
            + check_recipe_payloads(
                recipe, scenario.device_keys() if scenario else None
            )
        )
        if args.deadline or args.validate:
            from repro.lint import (
                LatencyContext,
                analyze_latency,
                check_bound_soundness,
                check_deadlines,
                flows_from_bench,
                flows_from_trace,
            )

            context = scenario.lint_context() if scenario else LatencyContext()
            placement = None
            if scenario:
                # Which tasks share a CPU: the placement the scenario's own
                # testbed admits the recipe under.
                _runtime, cluster = scenario.build(seed=scenario.seed, prepare=None)
                placement = cluster.submit(recipe).assignment.placements
            analysis = analyze_latency(recipe, context, placement)
            checks += check_deadlines(recipe, context, analysis)
            if args.validate:
                observed_path = Path(args.validate)
                if observed_path.suffix == ".jsonl":
                    observed = flows_from_trace(observed_path)
                else:
                    from repro.bench.continuous import BenchRecord

                    observed = flows_from_bench(
                        BenchRecord.from_dict(
                            json.loads(observed_path.read_text())
                        )
                    )
                checks += check_bound_soundness(
                    recipe,
                    observed,
                    context,
                    analysis,
                    source=observed_path.name,
                )
        for diag in checks:
            run.diagnostics.append(diag.replace(file=origin))
    if args.calibrate:
        from repro.bench.continuous import BenchRecord

        baseline = BenchRecord.from_dict(
            json.loads(Path(args.calibrate).read_text())
        )
        for diag in check_cost_drift(baseline):
            run.diagnostics.append(diag.replace(file=args.calibrate))
    run.finish()
    render = {"json": render_json, "sarif": render_sarif}.get(
        args.format, render_text
    )
    print(
        render(
            run.diagnostics,
            strict=args.strict,
            suppressed=run.suppressed,
            files_checked=run.files_checked if args.paths else None,
        )
    )
    return 0 if run.ok(strict=args.strict) else 1


def _cmd_prof(args: argparse.Namespace) -> int:
    from repro.prof import (
        chrome_counter_events,
        folded_stacks,
        format_profile_tree,
        profile_to_dict,
    )

    if args.rates:
        return _prof_rate_sweep(args)
    outcome, label = _run(args, args.scenario, args.rate, profile=True)
    profiler = outcome.runtime.prof
    print()
    if args.format == "folded":
        sys.stdout.write(folded_stacks(profiler))
    elif args.format == "json":
        print(json.dumps(profile_to_dict(profiler), indent=2, sort_keys=True))
    else:
        print(format_profile_tree(profiler, title=f"Profile — {label}"))
    if args.folded:
        Path(args.folded).write_text(  # repro: lint-ok[DET005] - CLI export
            folded_stacks(profiler), encoding="utf-8"
        )
        print(f"\nwrote folded stacks to {args.folded} (flamegraph.pl / speedscope)")
    if args.chrome:
        events = chrome_counter_events(outcome.runtime.tracer)
        Path(args.chrome).write_text(  # repro: lint-ok[DET005] - CLI export
            json.dumps({"traceEvents": events}, sort_keys=True), encoding="utf-8"
        )
        print(f"wrote {len(events)} counter events to {args.chrome}")
    return 0


def _prof_rate_sweep(args: argparse.Namespace) -> int:
    """Per-rate utilization table: the saturation knee at a glance."""
    rates = tuple(float(r) for r in args.rates.split(","))
    outcomes = [_run(args, args.scenario, rate, profile=True)[0] for rate in rates]
    profilers = [o.runtime.prof for o in outcomes]
    nodes = sorted({node for prof in profilers for node in prof.cpu_nodes()})
    print()
    header = f"{'node':<12}" + "".join(f"{f'{r:g} Hz':>10}" for r in rates)
    print("CPU utilization over the measured window (busy share, 1.0 = saturated)")
    print(header)
    print("-" * len(header))
    for node in nodes:
        row = f"{node:<12}"
        for o, prof in zip(outcomes, profilers):
            row += f"{prof.cpu_utilization(node, since=o.measure_from):>10.3f}"
        print(row)
    wlan_row = f"{'wlan':<12}" + "".join(
        f"{o.runtime.wlan.utilization():>10.3f}" for o in outcomes
    )
    print(wlan_row)
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.lint.report import render_text
    from repro.obs.slo import format_flow_summary
    from repro.util.validate import blocking

    # Profiling rides along so the drift watch and node watermarks have data.
    outcome, label = _run(args, args.scenario, args.rate, slo=True, profile=True)
    engine = outcome.runtime.slo
    report = engine.report()
    diagnostics = engine.diagnostics()
    if args.format == "json":
        payload = {
            "scenario": label,
            "report": report,
            "diagnostics": [
                {**dataclasses.asdict(d), "severity": str(d.severity)}
                for d in diagnostics
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print()
        print(f"SLO report — {label}")
        flows = {
            flow_id: entry
            for flow_id, entry in report["flows"].items()
            if entry["count"]
        }
        if flows:
            print(format_flow_summary(
                flows,
                {f: e["deadline_ms"] for f, e in report["flows"].items()},
            ))
        for flow_id, entry in report["flows"].items():
            if not entry["count"]:
                print(f"{flow_id:<20} (no completed traces)")
            extras = []
            if entry["overdue"]:
                extras.append(f"{entry['overdue']} overdue (never completed)")
            if entry["violations"] - entry["overdue"]:
                extras.append(
                    f"{entry['violations'] - entry['overdue']} late"
                )
            if extras:
                print(f"{flow_id:<20} {', '.join(extras)}")
        if report["alerts"]:
            print("\nalert timeline (sim-time anchors):")
            for alert in report["alerts"]:
                print(
                    f"  t={alert['t']:>9.3f}s  {alert['flow']:<16} "
                    f"{alert['from']:>4} -> {alert['state']:<4} "
                    f"(burn {alert['burn_short']:.1f} short / "
                    f"{alert['burn_long']:.1f} long)"
                )
        if report["drift"]:
            print("\ncost-model drift (online):")
            for op, finding in report["drift"].items():
                print(
                    f"  t={finding['t']:>9.3f}s  {op:<16} "
                    f"{finding['drift']:+.0%} "
                    f"({finding['observed_s'] * 1e3:.3f} ms observed vs "
                    f"{finding['predicted_s'] * 1e3:.3f} ms modeled)"
                )
        print()
        print(render_text(diagnostics, strict=args.strict, label="slo"))
    paged = any(alert["state"] == "page" for alert in report["alerts"])
    if args.expect_burn:
        if not paged:
            print("expected a deadline burn page but none fired", file=sys.stderr)
            return 1
        return 0
    return 1 if blocking(diagnostics, strict=args.strict) else 0


def _fetch_text(url: str, timeout_s: float = 10.0) -> str:
    import urllib.request

    with urllib.request.urlopen(  # repro: lint-ok[DET005] - live console poll  # noqa: S310
        url, timeout=timeout_s
    ) as response:
        return response.read().decode("utf-8")


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    url = args.url.rstrip("/") + "/top"
    iteration = 0
    while True:
        try:
            body = _fetch_text(url)
        except OSError as exc:
            print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
            return 1
        if not args.no_clear and iteration:
            print("\x1b[2J\x1b[H", end="")
        print(body, end="" if body.endswith("\n") else "\n")
        iteration += 1
        if args.iterations and iteration >= args.iterations:
            return 0
        time.sleep(args.interval)  # repro: lint-ok[DET005] - interactive poll cadence


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.continuous import (
        BENCH_RUNNERS,
        compare_bench,
        load_bench,
        run_bench,
        write_bench,
    )

    if args.list:
        for name in sorted(BENCH_RUNNERS):
            print(name)
        return 0
    names = args.names or sorted(BENCH_RUNNERS)
    out_dir = Path(args.out) if args.out else None
    all_ok = True
    for name in names:
        print(f"running benchmark {name!r}...")
        record = run_bench(name)
        if out_dir is not None:
            path = write_bench(record, out_dir)
            print(f"  wrote {path}")
        if args.compare:
            try:
                baseline = load_bench(Path(args.compare), name)
            except FileNotFoundError:
                print(f"  no baseline BENCH_{name}.json in {args.compare}")
                all_ok = False
                continue
            comparison = compare_bench(record, baseline)
            if comparison.ok:
                print(f"  {name}: OK (sim byte-exact vs baseline)")
            else:
                all_ok = False
                print(f"  {name}: REGRESSION")
                for failure in comparison.failures:
                    print(f"    {failure}")
    if args.compare and not all_ok:
        print(
            "\nbench gate failed — if the change is intentional, refresh the "
            "baseline with: repro bench --out <baseline-dir>",
            file=sys.stderr,
        )
    return 0 if all_ok else 1


def _cmd_san(args: argparse.Namespace) -> int:
    from repro.lint.report import render_text
    from repro.san import run_sanitizer
    from repro.util.validate import blocking

    if args.list:
        return _list_scenarios(sorted(SCENARIOS))
    report = run_sanitizer(
        scenarios=args.scenarios, perturb=args.perturb, profile=args.profile
    )
    diagnostics = report.diagnostics
    if args.format == "json":
        payload = report.to_dict()
        payload["ok"] = not blocking(diagnostics, strict=args.strict)
        payload["strict"] = args.strict
        payload["perturb"] = args.perturb
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for result in report.results:
            status = "diverged" if result.diverged_seeds else "stable"
            print(
                f"{result.scenario}: {result.events} events, "
                f"{result.cells} tracked cells, "
                f"{len(result.perturbed)} perturbed replays ({status})"
            )
        print(
            render_text(
                diagnostics,
                strict=args.strict,
                suppressed=report.suppressed,
                label="san",
            )
        )
    return 0 if not blocking(diagnostics, strict=args.strict) else 1


def _add_run_arguments(sub: argparse.ArgumentParser) -> None:
    """``--seed`` / ``--duration`` / ``--rate`` of a pipeline run; each
    defaults to what the scenario declares."""
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--duration", type=float, default=None, help="run length (s)")
    sub.add_argument(
        "--rate",
        type=float,
        default=None,
        help="sensing rate (Hz), for scenarios that declare one (paper)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IFoT middleware reproduction (ICDCSW 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    paper = sub.add_parser("paper-exp", help="regenerate Tables II/III")
    paper.add_argument(
        "--rates", default="", help="comma-separated Hz list (default: paper's)"
    )
    paper.add_argument("--duration", type=float, default=2.5)
    paper.add_argument("--seed", type=int, default=1)
    paper.add_argument("--csv", default="", help="also write results to CSV")
    paper.add_argument("--json", default="", help="also write results to JSON")
    paper.set_defaults(fn=_cmd_paper_exp)

    validate = sub.add_parser("validate", help="validate a recipe file")
    validate.add_argument("recipe", help=".recipe (DSL) or .json file")
    validate.add_argument(
        "--modules",
        type=int,
        default=0,
        help="dry-run assignment over N hypothetical modules",
    )
    validate.set_defaults(fn=_cmd_validate)

    fmt = sub.add_parser("fmt", help="canonically format a recipe")
    fmt.add_argument("recipe")
    fmt.set_defaults(fn=_cmd_fmt)

    ops = sub.add_parser("operators", help="list recipe operators")
    ops.set_defaults(fn=_cmd_operators)

    chaos = sub.add_parser(
        "chaos", help="run fault-injection scenarios and check invariants"
    )
    chaos.add_argument(
        "scenario",
        nargs="?",
        default="",
        help="scenario name (default: run all); see --list",
    )
    chaos.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--seeds",
        default="",
        help="comma-separated seed sweep: run each seed in its own worker "
        "process and merge deterministically (ignores --seed)",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for --seeds (default: 1 = serial reference)",
    )
    chaos.add_argument(
        "--recover",
        action="store_true",
        help="print a recovery report (detection latency, migration "
        "durations, degraded-mode decisions) after the invariants",
    )
    chaos.set_defaults(fn=_cmd_chaos)

    heal = sub.add_parser(
        "heal",
        help="run a failure scenario and report how the control plane "
        "healed it",
    )
    heal.add_argument(
        "scenario",
        nargs="?",
        default="failover",
        help="chaos scenario to heal (default: failover); see "
        "'repro chaos --list'",
    )
    heal.add_argument("--seed", type=int, default=0)
    heal.set_defaults(fn=_cmd_heal)

    trace = sub.add_parser(
        "trace", help="observed run + per-stage latency breakdown"
    )
    trace.add_argument(
        "--pipeline",
        default="paper",
        help="scenario to run (default: paper); see 'repro san --list'",
    )
    _add_run_arguments(trace)
    trace.add_argument(
        "--input", default="", help="analyze an existing trace JSONL instead of running"
    )
    trace.add_argument("--jsonl", default="", help="dump the full trace as JSONL")
    trace.add_argument(
        "--chrome", default="", help="export spans as Chrome trace_event JSON"
    )
    trace.add_argument(
        "--summary",
        action="store_true",
        help="one-screen per-flow p50/p95/p99/max table instead of the "
        "full breakdown (BENCH schema v3 flow stats)",
    )
    trace.add_argument(
        "--recipe",
        default="",
        help="with --summary: scenario name or recipe file supplying "
        "deadline_ms for the SLO verdict column (default: the scenario "
        "just run; needed with --input)",
    )
    trace.set_defaults(fn=_cmd_trace)

    lint = sub.add_parser(
        "lint", help="determinism linter + recipe static checker"
    )
    lint.add_argument(
        "paths", nargs="*", help="Python files or directories to lint"
    )
    lint.add_argument(
        "--recipe",
        default="",
        help=(
            "also statically check a recipe: a file or a scenario name "
            "(scenarios bring the payload schemas of their testbed's "
            "devices and their calibration)"
        ),
    )
    lint.add_argument(
        "--dataflow",
        action="store_true",
        help=(
            "also run the interprocedural state-soundness pass "
            "(SAN020/SAN021) over the given paths"
        ),
    )
    lint.add_argument(
        "--calibrate",
        default="",
        metavar="BASELINE",
        help=(
            "check a bench baseline's per-op busy accounting against the "
            "calibrated cost model (RCP230 drift gate), e.g. "
            "benchmarks/baselines/BENCH_fig5.json"
        ),
    )
    lint.add_argument(
        "--deadline",
        action="store_true",
        help=(
            "also run the static latency-bound analyzer over --recipe: "
            "network-calculus bounds per flow checked against declared "
            "deadline_ms (RCP240-RCP242)"
        ),
    )
    lint.add_argument(
        "--validate",
        default="",
        metavar="TRACE_OR_BENCH",
        help=(
            "with --deadline: hold the static bounds against observed "
            "flow latencies from a BENCH baseline (schema v3 sim.flows) "
            "or an obs.span .jsonl trace dump (RCP243 soundness gate, "
            "RCP244 looseness)"
        ),
    )
    lint.add_argument(
        "--strict", action="store_true", help="warnings also fail the run"
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text", dest="format"
    )
    lint.add_argument(
        "--rules", default="", help="comma-separated rule ids (default: all)"
    )
    lint.add_argument(
        "--catalog", action="store_true", help="list lint rules and exit"
    )
    lint.set_defaults(fn=_cmd_lint)

    san = sub.add_parser(
        "san", help="schedule sanitizer: happens-before races + replay"
    )
    san.add_argument(
        "scenarios",
        nargs="*",
        help="scenario names (default: all); see --list",
    )
    san.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    san.add_argument(
        "--perturb",
        type=int,
        default=3,
        metavar="N",
        help="tie-break perturbation replays per scenario (default: 3)",
    )
    san.add_argument(
        "--strict", action="store_true", help="warnings also fail the run"
    )
    san.add_argument(
        "--format", choices=("text", "json"), default="text", dest="format"
    )
    san.add_argument(
        "--profile",
        action="store_true",
        help="also run the profiler in every run (base + perturbed): a "
        "schedule-dependent profile surfaces as SAN010 divergence",
    )
    san.set_defaults(fn=_cmd_san)

    prof = sub.add_parser(
        "prof", help="sim-time profile: busy-time tree and utilization"
    )
    prof.add_argument(
        "--scenario",
        default="fig5",
        help="scenario to profile (default: fig5); see 'repro san --list'",
    )
    _add_run_arguments(prof)
    prof.add_argument(
        "--rates",
        default="",
        help="comma-separated Hz list: per-rate utilization table",
    )
    prof.add_argument(
        "--format",
        choices=("tree", "folded", "json"),
        default="tree",
        dest="format",
    )
    prof.add_argument(
        "--folded", default="", help="write folded stacks (flamegraph input)"
    )
    prof.add_argument(
        "--chrome", default="", help="write Chrome trace_event counter tracks"
    )
    prof.set_defaults(fn=_cmd_prof)

    bench = sub.add_parser(
        "bench", help="continuous benchmarks + regression gate"
    )
    bench.add_argument(
        "names", nargs="*", help="benchmark names (default: all); see --list"
    )
    bench.add_argument(
        "--list", action="store_true", help="list benchmarks and exit"
    )
    bench.add_argument(
        "--out", default="", help="write BENCH_<name>.json records here"
    )
    bench.add_argument(
        "--compare",
        default="",
        metavar="DIR",
        help="gate against baseline BENCH_<name>.json records in DIR",
    )
    bench.set_defaults(fn=_cmd_bench)

    slo = sub.add_parser(
        "slo", help="run a scenario with the online SLO engine and report"
    )
    slo.add_argument("scenario", help="scenario name; see 'repro san --list'")
    _add_run_arguments(slo)
    slo.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too (SLO301/302/310/320), not just pages",
    )
    slo.add_argument(
        "--expect-burn",
        action="store_true",
        help="acceptance mode: exit 0 iff a page alert fired (chaos runs)",
    )
    slo.add_argument("--format", choices=("text", "json"), default="text")
    slo.set_defaults(fn=_cmd_slo)

    top = sub.add_parser(
        "top", help="live SLO/metrics console for a running real backend"
    )
    top.add_argument(
        "url", help="scrape endpoint base URL (AsyncioRuntime.serve_metrics)"
    )
    top.add_argument("--interval", type=float, default=2.0, help="poll period (s)")
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after N polls (0 = run until interrupted)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="do not clear the screen between redraws",
    )
    top.set_defaults(fn=_cmd_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. piped into `head`
        return 0
    except (FileNotFoundError, UnknownScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IFoTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
