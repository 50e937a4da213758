"""Static analysis for the reproduction: determinism linter + recipe checker.

Two engines share one diagnostics currency
(:class:`repro.util.validate.Diagnostic`):

* the **determinism linter** (:mod:`repro.lint.engine`) — an AST rules
  engine that guards the repository's same-seed-same-trace contract: no
  wall-clock reads, no global RNG, no order-dependent set iteration, no
  identity/hash ordering, no blocking I/O in simulated code paths;
* the **recipe static checker** (:mod:`repro.lint.recipe_check`) — verifies
  a task graph *before* ``RecipeSplit``/``TaskAssignment`` deploy it
  (paper §IV-C): DAG-ness, stream wiring, QoS coherence, operator port
  shapes, and static rate feasibility against the per-node CPU
  service-time model.

Run both from the command line via ``repro lint``; the deployment path
(:mod:`repro.core.management`) runs the recipe checker automatically.

A third engine, the **interprocedural dataflow analyzer**
(:mod:`repro.lint.dataflow`), reasons across files and across the task
graph: state-declaration soundness for the schedule sanitizer
(SAN020/SAN021), recipe payload-schema and at-least-once semantics
checks (RCP200–RCP212), and the cost-model drift gate (RCP230/RCP231)
that holds a profiled scenario run against the calibrated cost model.
``repro lint --dataflow`` / ``--calibrate`` run it.

A fourth engine, the **latency-bound analyzer**
(:mod:`repro.lint.latency`), runs a network-calculus-style abstract
interpretation over the task graph: token-bucket arrival curves composed
with calibrated CPU/WLAN service curves yield a worst-case end-to-end
latency bound per flow and a backlog bound per shared resource, checked
against deadlines declared on recipe sinks (RCP240–RCP242) and validated
against an observed scenario run or a trace dump by the soundness gate
(RCP243/RCP244). ``repro lint --deadline`` / ``--validate`` run it.

The recipe-side engines share one model of a recipe:
:func:`repro.lint.rates.walk` visits the topological order once and
derives, per task, its rates, payload schemas and ``PayloadEffect``.
Rate feasibility (RCP110/RCP111), the payload checks, the latency bounds,
placement and shedding all read that one result.

Every implemented rule across the four engines (plus the sanitizer's
SAN-series) is registered in :mod:`repro.lint.catalog`; ``repro lint
--catalog``, the README table and SARIF rule metadata all render from
that single registry.
"""

from repro.lint.catalog import (
    CatalogEntry,
    catalog_descriptions,
    render_catalog_markdown,
    render_catalog_text,
    unified_catalog,
)
from repro.lint.dataflow import (
    DATAFLOW_RULES,
    analyze_state_soundness,
    check_cost_drift,
    check_recipe_payloads,
)
from repro.lint.engine import LintRun, lint_paths, lint_source
from repro.lint.latency import (
    LATENCY_RULES,
    FlowBound,
    LatencyAnalysis,
    LatencyContext,
    ResourceBound,
    analyze_latency,
    check_bound_soundness,
    check_deadlines,
    flows_from_trace,
)
from repro.lint.rates import StreamSchema, walk
from repro.lint.recipe_check import (
    check_rate_feasibility,
    check_recipe,
    check_recipe_dict,
)
from repro.lint.report import render_json, render_sarif, render_text
from repro.lint.rules import RULE_CATALOG, LintRule

__all__ = [
    "LintRun",
    "lint_paths",
    "lint_source",
    "check_recipe",
    "check_recipe_dict",
    "check_rate_feasibility",
    "check_recipe_payloads",
    "check_cost_drift",
    "analyze_state_soundness",
    "walk",
    "StreamSchema",
    "DATAFLOW_RULES",
    "LATENCY_RULES",
    "LatencyContext",
    "LatencyAnalysis",
    "FlowBound",
    "ResourceBound",
    "analyze_latency",
    "check_deadlines",
    "check_bound_soundness",
    "flows_from_trace",
    "render_json",
    "render_sarif",
    "render_text",
    "LintRule",
    "RULE_CATALOG",
    "CatalogEntry",
    "unified_catalog",
    "catalog_descriptions",
    "render_catalog_text",
    "render_catalog_markdown",
]
