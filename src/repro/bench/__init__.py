"""Experiment harness: the paper's testbed, latency probes and reporting.

* :mod:`repro.bench.calibration` — Pi-class cost model constants fitted to
  the paper's Tables II/III;
* :mod:`repro.bench.scenarios` — builders for the Fig. 7/9 and Fig. 5
  testbeds and the ``paper`` / ``fig5`` scenarios declared on them;
* :mod:`repro.bench.harness` — run an experiment, collect sensing-to-X
  latency samples, summarize;
* :mod:`repro.bench.reporting` — paper-vs-measured tables.
"""

from repro.bench.calibration import (
    BROKER_QUEUE_LIMIT,
    PAPER_TABLE2_TRAINING,
    PAPER_TABLE3_PREDICTING,
    PI_QUEUE_LIMIT,
    pi_cost_model,
    pi_wlan_config,
)
from repro.bench.harness import ExperimentResult, run_paper_experiment, run_rate_sweep
from repro.bench.reporting import format_comparison_table, format_result_table
from repro.bench.scenarios import PaperTestbed, build_paper_recipe, build_paper_testbed

__all__ = [
    "BROKER_QUEUE_LIMIT",
    "ExperimentResult",
    "PAPER_TABLE2_TRAINING",
    "PAPER_TABLE3_PREDICTING",
    "PI_QUEUE_LIMIT",
    "PaperTestbed",
    "build_paper_recipe",
    "build_paper_testbed",
    "format_comparison_table",
    "format_result_table",
    "pi_cost_model",
    "pi_wlan_config",
    "run_paper_experiment",
    "run_rate_sweep",
]
