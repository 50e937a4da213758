import dataclasses

import pytest

from repro.bench.calibration import pi_cost_model
from repro.bench.scenarios import FIG5, PAPER, build_fig5_testbed
from repro.chaos.scenarios import CHAOS_SCENARIOS, run_scenario
from repro.core.assignment import (
    Assignment,
    CapabilityAwareStrategy,
    LoadAwareStrategy,
    ModuleInfo,
    RoundRobinStrategy,
    TaskAssignment,
    estimate_cost,
)
from repro.core.recipe import Recipe
from repro.core.splitter import RecipeSplit, SubTask
from repro.errors import AssignmentError
from repro.lint.rates import module_demand, placement_demand


def subtask(sid, operator="map", capabilities=None, pin_to=None, shard_count=1):
    return SubTask(
        subtask_id=sid,
        task_id=sid.split("#")[0],
        operator=operator,
        inputs=[],
        outputs=[],
        params={},
        capabilities=capabilities or [],
        pin_to=pin_to,
        shard_count=shard_count,
    )


def modules(*names, **kwargs):
    return [ModuleInfo(name=n, **kwargs) for n in names]


class TestDriver:
    def test_no_modules(self):
        with pytest.raises(AssignmentError):
            TaskAssignment().assign([subtask("a")], [])

    def test_duplicate_module_names(self):
        with pytest.raises(AssignmentError):
            TaskAssignment().assign([subtask("a")], modules("m", "m"))

    def test_pinned_placement(self):
        assignment = TaskAssignment().assign(
            [subtask("a", pin_to="m2")], modules("m1", "m2")
        )
        assert assignment.module_for("a") == "m2"

    def test_pin_to_unknown_module(self):
        with pytest.raises(AssignmentError, match="unknown module"):
            TaskAssignment().assign([subtask("a", pin_to="ghost")], modules("m1"))

    def test_pin_to_incapable_module(self):
        with pytest.raises(AssignmentError, match="lacks capabilities"):
            TaskAssignment().assign(
                [subtask("a", capabilities=["gpu"], pin_to="m1")], modules("m1")
            )

    def test_capability_filtering(self):
        mods = [
            ModuleInfo("plain"),
            ModuleInfo("cam", capabilities={"sensor:camera"}),
        ]
        assignment = TaskAssignment().assign(
            [subtask("a", capabilities=["sensor:camera"])], mods
        )
        assert assignment.module_for("a") == "cam"

    def test_no_capable_module(self):
        with pytest.raises(AssignmentError, match="no module provides"):
            TaskAssignment().assign([subtask("a", capabilities=["gpu"])], modules("m"))

    def test_missing_placement_lookup(self):
        with pytest.raises(AssignmentError):
            Assignment().module_for("ghost")

    def test_subtasks_on(self):
        assignment = Assignment(placements={"a": "m1", "b": "m1", "c": "m2"})
        assert assignment.subtasks_on("m1") == ["a", "b"]


class TestStrategies:
    def test_round_robin_cycles(self):
        strategy = RoundRobinStrategy()
        assignment = TaskAssignment(strategy).assign(
            [subtask(f"t{i}") for i in range(4)], modules("m1", "m2")
        )
        placements = [assignment.module_for(f"t{i}") for i in range(4)]
        assert placements == ["m1", "m2", "m1", "m2"]

    def test_load_aware_balances_costs(self):
        # train (8.0) should not land with other heavy ops on one module.
        subtasks = [
            subtask("t1", operator="train"),
            subtask("t2", operator="map"),
            subtask("t3", operator="map"),
        ]
        assignment = TaskAssignment(LoadAwareStrategy()).assign(
            subtasks, modules("m1", "m2")
        )
        assert assignment.module_for("t2") != assignment.module_for("t1")

    def test_load_aware_respects_capacity(self):
        mods = [ModuleInfo("slow", capacity=1.0), ModuleInfo("fast", capacity=10.0)]
        subtasks = [subtask(f"t{i}", operator="train") for i in range(4)]
        assignment = TaskAssignment(LoadAwareStrategy()).assign(subtasks, mods)
        fast_count = len(assignment.subtasks_on("fast"))
        assert fast_count >= 3

    def test_load_aware_accounts_base_load(self):
        mods = [
            ModuleInfo("busy", base_load=100.0),
            ModuleInfo("idle"),
        ]
        assignment = TaskAssignment(LoadAwareStrategy()).assign(
            [subtask("t")], mods
        )
        assert assignment.module_for("t") == "idle"

    def test_capability_aware_prefers_narrow_modules(self):
        mods = [
            ModuleInfo("generalist", capabilities={"sensor:a", "actuator:b"}),
            ModuleInfo("narrow"),
        ]
        assignment = TaskAssignment(CapabilityAwareStrategy()).assign(
            [subtask("plain-task")], mods
        )
        assert assignment.module_for("plain-task") == "narrow"

    def test_shards_spread_over_modules(self):
        shards = [
            subtask(f"w#{i}", operator="train", shard_count=3) for i in range(3)
        ]
        assignment = TaskAssignment(LoadAwareStrategy()).assign(
            shards, modules("m1", "m2", "m3")
        )
        assert len({assignment.module_for(s.subtask_id) for s in shards}) == 3

    def test_projected_load_reported(self):
        assignment = TaskAssignment(LoadAwareStrategy()).assign(
            [subtask("t", operator="train")], modules("m1")
        )
        assert assignment.projected_load["m1"] == pytest.approx(8.0)


def test_estimate_cost_shard_discount():
    full = estimate_cost(subtask("a", operator="train"))
    shard = estimate_cost(subtask("a#0", operator="train", shard_count=4))
    assert shard == pytest.approx(full / 4)


def test_estimate_cost_unknown_operator_default():
    assert estimate_cost(subtask("a", operator="exotic")) == pytest.approx(2.0)


class TestDemand:
    """``demand`` (predicted CPU-s/s per sub-task) orders and ranks."""

    def test_heaviest_first_lands_alone(self):
        # In split order "light" takes m1 and both heavy tasks follow the
        # name tie-break; heaviest-first the two heavy ones split up.
        subtasks = [subtask("light"), subtask("heavy-1"), subtask("heavy-2")]
        demand = {"light": 0.1, "heavy-1": 0.6, "heavy-2": 0.5}
        assignment = TaskAssignment().assign(subtasks, modules("m1", "m2"), demand)
        assert assignment.placements == {"light": "m2", "heavy-1": "m1", "heavy-2": "m2"}
        assert list(assignment.placements) == ["light", "heavy-1", "heavy-2"]

    def test_forced_subtasks_are_charged_before_the_rest_chooses(self):
        # "free" comes first in split order and is the heavier one, but the
        # pinned task's load on m1 is a fact it has to plan around.
        subtasks = [subtask("free"), subtask("pinned", pin_to="m1")]
        demand = {"free": 0.5, "pinned": 0.4}
        assignment = TaskAssignment().assign(subtasks, modules("m1", "m2"), demand)
        assert assignment.module_for("free") == "m2"

    def test_predicted_utilization_outranks_load_points(self):
        # m1 holds more load points (the tie-break), m2 more predicted CPU.
        mods = [ModuleInfo("m1", base_load=8.0), ModuleInfo("m2", base_demand=0.5)]
        assignment = TaskAssignment().assign([subtask("t")], mods, {"t": 0.1})
        assert assignment.module_for("t") == "m1"

    def test_unpriced_demand_is_exactly_the_load_point_placement(self):
        subtasks = [
            subtask("t1", operator="train"),
            subtask("t2", pin_to="m2"),
            subtask("t3", operator="predict"),
            subtask("t4"),
        ]
        mods = modules("m1", "m2", "m3")
        plain = TaskAssignment().assign(subtasks, mods)
        zeros = TaskAssignment().assign(subtasks, mods, dict.fromkeys("t1 t2 t3 t4".split(), 0.0))
        assert plain.placements == zeros.placements
        assert plain.projected_load == zeros.projected_load


# ---------------------------------------------------------------------------
# Placements that must not move, and the one that did (captured at 3d3228f)
# ---------------------------------------------------------------------------

CHAOS_PLACEMENT = {
    "sense-a": "module-a",
    "sense-b": "module-b",
    "dedup": "module-c",
    "train": "module-d",
}
PAPER_PLACEMENT = {
    "sense-a": "module-a",
    "sense-b": "module-b",
    "sense-c": "module-c",
    "gather-train": "module-e",
    "train": "module-e",
    "gather-predict": "module-f",
    "predict": "module-f",
}
_FIG5_PINNED_BY_CAPABILITY = {
    "sensing-a": "pi-wrist",
    "sensing-b": "pi-waist",
    "sensing-c": "pi-room",
    "sensing-d": "pi-room",
    "alert-messaging": "pi-pager",
}
#: Load points only: what the parent chose under *any* cost model, and what
#: a model that prices nothing (the golden fig5 trace) still chooses.
FIG5_PARENT_PLACEMENT = {
    **_FIG5_PINNED_BY_CAPABILITY,
    "body-magnitude": "pi-analysis",
    "body-mag-feature": "pi-wrist",
    "anomaly-body": "pi-analysis",
    "anomaly-env": "pi-pager",
    "camera-monitoring": "pi-waist",
    "state-estimation": "pi-room",
    "alert-rules": "pi-waist",
}
#: Under the Pi calibration: `anomaly-body` (40 Hz x ml.predict) alone.
FIG5_PI_PLACEMENT = {
    **_FIG5_PINNED_BY_CAPABILITY,
    "body-magnitude": "pi-wrist",
    "body-mag-feature": "pi-pager",
    "anomaly-body": "pi-analysis",
    "anomaly-env": "pi-room",
    "camera-monitoring": "pi-wrist",
    "state-estimation": "pi-room",
    "alert-rules": "pi-waist",
}


def initial_placement(scenario):
    _runtime, cluster = scenario.build(seed=scenario.seed, prepare=None)
    return cluster.submit(scenario.recipe()).assignment.placements


def fig5_rho(placement):
    """Module -> predicted utilization of fig5 at ``placement``, Pi model."""
    recipe = FIG5.recipe()
    demand = placement_demand(recipe, RecipeSplit().split(recipe), pi_cost_model())
    return module_demand(demand, placement)


def pinned(recipe, placement):
    """``recipe`` with every task forced where ``placement`` says."""
    return Recipe(
        recipe.name,
        [
            dataclasses.replace(task, pin_to=placement[task.task_id])
            for task in recipe.tasks.values()
        ],
    )


def test_unpriced_and_pinned_placements_equal_the_parent_commit():
    assert len(CHAOS_SCENARIOS) == 7
    for scenario in CHAOS_SCENARIOS:
        assert initial_placement(scenario) == CHAOS_PLACEMENT, scenario.name
    assert initial_placement(PAPER) == PAPER_PLACEMENT
    _runtime, cluster = build_fig5_testbed()  # NULL_COST_MODEL
    unpriced = cluster.submit(FIG5.recipe()).assignment.placements
    assert unpriced == FIG5_PARENT_PLACEMENT


def test_failover_re_placement_equals_the_parent_commit():
    moved = run_scenario("failover", seed=0).tracer.select(event="mgmt.failover_moved")
    assert [(r["subtask"], r["from_module"], r["to_module"]) for r in moved] == [
        ("train", "module-d", "module-c")
    ]


def test_fig5_under_the_pi_model_spreads_by_predicted_load():
    assert initial_placement(FIG5) == FIG5_PI_PLACEMENT
    rho = fig5_rho(FIG5_PI_PLACEMENT)
    assert max(rho.values()) <= 0.9
    assert rho["pi-analysis"] == pytest.approx(0.8822, abs=5e-4)
    # The parent stacked the 40 Hz merge beside the 40 Hz predictor.
    assert fig5_rho(FIG5_PARENT_PLACEMENT)["pi-analysis"] == pytest.approx(
        1.1064, abs=5e-4
    )
