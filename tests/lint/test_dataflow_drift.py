"""Cost-model drift gate (RCP230/RCP231): a profiled fig5 run against the
calibrated model, plus synthetic tables against a model we fully control."""

import pytest

from repro.lint import check_cost_drift
from repro.lint.dataflow import DRIFT_MIN_COUNT, DRIFT_TOLERANCE
from repro.runtime.costs import CostModel, OpCost


@pytest.fixture(scope="module")
def fig5_op_busy():
    """``op -> (busy_s, count)`` of fig5 at its own seed and duration."""
    from repro.registry import resolve
    from repro.scenario import run

    return run(resolve("fig5"), profile=True).runtime.prof.cpu_busy_by_op()


def synthetic_table(op="x", busy_s=1.0, count=100):
    return {op: (busy_s, count)}


def exact_model(op="x", mean_s=0.01):
    model = CostModel()
    model.define(op, OpCost(base_s=mean_s))
    return model


class TestCommittedBaseline:
    """fig5's own profiled run (the committed scenario) as the baseline."""

    def test_fig5_baseline_passes_default_model(self, fig5_op_busy):
        assert check_cost_drift(fig5_op_busy) == []

    def test_fig5_baseline_fails_perturbed_model(self, fig5_op_busy):
        # The acceptance check: a >=tolerance recalibration the simulator
        # does not charge must trip the gate.
        from repro.lint.rates import default_cost_model

        diags = check_cost_drift(fig5_op_busy, default_cost_model().scaled(1.5))
        assert diags and all(d.rule == "RCP230" for d in diags)


class TestSyntheticRecords:
    def test_matching_observation_passes(self):
        table = synthetic_table(busy_s=1.0, count=100)
        assert check_cost_drift(table, exact_model(mean_s=0.01)) == []

    def test_drift_beyond_tolerance_is_rcp230(self):
        table = synthetic_table(busy_s=1.0, count=100)  # observed 10 ms
        diags = check_cost_drift(table, exact_model(mean_s=0.005), source="synthetic")
        assert [d.rule for d in diags] == ["RCP230"]
        assert diags[0].where == "op x (synthetic)"

    def test_drift_within_tolerance_passes(self):
        just_inside = 0.01 * (1 + DRIFT_TOLERANCE * 0.9)
        table = synthetic_table(busy_s=just_inside * 100, count=100)
        assert check_cost_drift(table, exact_model(mean_s=0.01)) == []

    def test_unmodeled_op_is_rcp231(self):
        table = synthetic_table(op="mystery.op", busy_s=1.0, count=100)
        diags = check_cost_drift(table, exact_model(op="x"))
        assert [d.rule for d in diags] == ["RCP231"]
        assert "mystery.op" in diags[0].message

    def test_low_count_ops_are_skipped(self):
        # Too few invocations to average away jitter: wildly-off busy
        # below min_count must not fire.
        table = synthetic_table(busy_s=999.0, count=DRIFT_MIN_COUNT - 1)
        assert check_cost_drift(table, exact_model(mean_s=0.01)) == []

    def test_warmup_surcharge_is_amortized(self):
        # 10 warm-up invocations at +9 ms over a 100-call run add 0.9 ms
        # to the predicted mean; an observation matching that total passes
        # while the steady-state mean alone would be 19% off.
        model = CostModel()
        model.define("x", OpCost(base_s=0.005, warmup_extra_s=0.009, warmup_ops=10))
        observed_total = 0.005 * 100 + 0.009 * 10
        table = synthetic_table(busy_s=observed_total, count=100)
        assert check_cost_drift(table, model) == []
