"""Recipe static checker matrix: structure, QoS, ports, rates."""

import pytest

from repro.core.recipe import Recipe, TaskSpec
from repro.lint import check_rate_feasibility, check_recipe, check_recipe_dict


def task(task_id, operator, **kw):
    return {"id": task_id, "operator": operator, **kw}


def recipe_dict(*tasks, name="app"):
    return {"recipe": name, "tasks": list(tasks)}


def rules_of(diagnostics):
    return sorted({d.rule for d in diagnostics})


def sensor_train(rate_hz=5, parallelism=1):
    return Recipe(
        "app",
        [
            TaskSpec(
                "sense",
                "sensor",
                outputs=["raw"],
                params={"device": "sample", "rate_hz": rate_hz},
            ),
            TaskSpec(
                "train",
                "train",
                inputs=["raw"],
                params={"model": "classifier", "label_key": "label"},
                parallelism=parallelism,
            ),
        ],
    )


class TestStructure:
    def test_valid_recipe_clean(self):
        assert check_recipe(sensor_train()) == []

    def test_missing_tasks_key(self):
        diags = check_recipe_dict({"recipe": "x"})
        assert rules_of(diags) == ["RCP100"]

    def test_malformed_task_entry(self):
        diags = check_recipe_dict(recipe_dict({"operator": "map"}))
        assert "RCP100" in rules_of(diags)

    def test_duplicate_task_id(self):
        diags = check_recipe_dict(
            recipe_dict(
                task("a", "sensor", outputs=["raw"]),
                task("a", "map", inputs=["raw"]),
            )
        )
        assert "RCP101" in rules_of(diags)

    def test_multi_producer_stream(self):
        diags = check_recipe_dict(
            recipe_dict(
                task("s1", "sensor", outputs=["raw"]),
                task("s2", "sensor", outputs=["raw"]),
                task("m", "map", inputs=["raw"]),
            )
        )
        assert "RCP102" in rules_of(diags)

    def test_dangling_input(self):
        diags = check_recipe_dict(
            recipe_dict(task("m", "map", inputs=["ghost"], outputs=["out"]))
        )
        assert "RCP103" in rules_of(diags)

    def test_external_reference_ok(self):
        diags = check_recipe_dict(
            recipe_dict(task("m", "map", inputs=["other-app:raw"]))
        )
        assert "RCP103" not in rules_of(diags)

    def test_malformed_external_reference(self):
        diags = check_recipe_dict(recipe_dict(task("m", "map", inputs=[":raw"])))
        assert "RCP103" in rules_of(diags)

    def test_cycle_detected(self):
        diags = check_recipe_dict(
            recipe_dict(
                task("a", "map", inputs=["c-out"], outputs=["a-out"]),
                task("b", "map", inputs=["a-out"], outputs=["b-out"]),
                task("c", "map", inputs=["b-out"], outputs=["c-out"]),
            )
        )
        cycle = [d for d in diags if d.rule == "RCP104"]
        assert len(cycle) == 1
        assert str(cycle[0].severity) == "error"
        for tid in ("a", "b", "c"):
            assert tid in cycle[0].message

    def test_orphan_stream_warns(self):
        diags = check_recipe_dict(
            recipe_dict(task("s", "sensor", outputs=["raw", "unused"]))
        )
        orphans = [d for d in diags if d.rule == "RCP105"]
        assert len(orphans) == 2  # nothing consumes either stream
        assert all(str(d.severity) == "warning" for d in orphans)

    @pytest.mark.parametrize("field", [{"params": {"qos": "one"}}, {"outputs": "raw"}])
    def test_hostile_field_is_rcp100_not_a_traceback(self, field):
        diags = check_recipe_dict(
            recipe_dict(
                task("s", "sensor", **{"outputs": ["raw"], **field}),
                task("m", "map", inputs=["raw"]),
            )
        )
        malformed = [d for d in diags if d.rule == "RCP100"]
        assert len(malformed) == 1 and "tasks[0]" in malformed[0].where

    def test_unknown_operator(self):
        diags = check_recipe_dict(
            recipe_dict(task("x", "quantum-sort", inputs=["other:in"]))
        )
        assert "RCP106" in rules_of(diags)


class TestQosAndPorts:
    def test_qos_mismatch_warns(self):
        diags = check_recipe_dict(
            recipe_dict(
                task("s", "sensor", outputs=["raw"], params={"qos": 0}),
                task("m", "map", inputs=["raw"], params={"qos": 1}),
            )
        )
        mismatch = [d for d in diags if d.rule == "RCP107"]
        assert len(mismatch) == 1
        assert "QoS 1" in mismatch[0].message

    def test_matching_qos_clean(self):
        diags = check_recipe_dict(
            recipe_dict(
                task("s", "sensor", outputs=["raw"], params={"qos": 1}),
                task("m", "map", inputs=["raw"], params={"qos": 1}),
            )
        )
        assert "RCP107" not in rules_of(diags)

    def test_sensor_with_inputs_is_error(self):
        diags = check_recipe_dict(
            recipe_dict(
                task("s1", "sensor", outputs=["raw"]),
                task("s2", "sensor", inputs=["raw"], outputs=["cooked"]),
            )
        )
        assert "RCP108" in rules_of(diags)

    def test_processor_without_inputs_is_error(self):
        diags = check_recipe_dict(recipe_dict(task("m", "map", outputs=["out"])))
        assert "RCP108" in rules_of(diags)

    def test_mix_without_inputs_is_fine(self):
        # mix coordinates over control topics; it has no stream inputs.
        diags = check_recipe_dict(
            recipe_dict(task("mixer", "mix", params={"model": "m"}))
        )
        assert "RCP108" not in rules_of(diags)

    def test_sharded_stateful_operator_warns(self):
        diags = check_recipe(sensor_train(parallelism=3))
        assert rules_of(diags) == ["RCP109"]


class TestRateFeasibility:
    def test_feasible_rate_clean(self):
        assert check_rate_feasibility(sensor_train(rate_hz=5)) == []

    def test_infeasible_rate_flagged(self):
        # 40 Hz x 28 ms training = 1.12 CPU-s/s on a unit module.
        diags = check_rate_feasibility(sensor_train(rate_hz=40))
        overload = [d for d in diags if d.rule == "RCP110"]
        assert len(overload) == 1
        assert "train" in overload[0].where

    def test_sharding_restores_feasibility(self):
        diags = check_rate_feasibility(sensor_train(rate_hz=40, parallelism=2))
        assert "RCP110" not in rules_of(diags)

    def test_near_capacity_warns(self):
        # 30 Hz x 28 ms = 0.84: above the 0.8 soft threshold, below 1.0.
        diags = check_rate_feasibility(sensor_train(rate_hz=30))
        assert rules_of(diags) == ["RCP111"]

    def test_throttle_caps_downstream_rate(self):
        recipe = Recipe(
            "app",
            [
                TaskSpec(
                    "sense",
                    "sensor",
                    outputs=["raw"],
                    params={"device": "d", "rate_hz": 100},
                ),
                TaskSpec(
                    "calm",
                    "throttle",
                    inputs=["raw"],
                    outputs=["slow"],
                    params={"interval_s": 0.5},
                ),
                TaskSpec(
                    "learn",
                    "train",
                    inputs=["slow"],
                    params={"model": "classifier", "label_key": "y"},
                ),
            ],
        )
        diags = check_rate_feasibility(recipe)
        # The 100 Hz feed is throttled to 2 Hz before training.
        assert not [d for d in diags if "learn" in d.where]


class TestShippedRecipes:
    def test_fig5_recipe_statically_clean(self):
        from repro.bench.scenarios import FIG5_RECIPE_PATH
        from repro.core.dsl import parse_recipe

        recipe = parse_recipe(FIG5_RECIPE_PATH.read_text(encoding="utf-8"))
        assert check_recipe(recipe) == []
        assert check_rate_feasibility(recipe) == []

    def test_paper_recipe_feasible_at_5hz(self):
        from repro.bench.scenarios import build_paper_recipe

        recipe = build_paper_recipe(rate_hz=5.0)
        assert check_recipe(recipe) == []
        assert check_rate_feasibility(recipe) == []

    def test_paper_recipe_saturates_at_40hz(self):
        from repro.bench.scenarios import build_paper_recipe

        recipe = build_paper_recipe(rate_hz=40.0)
        diags = check_rate_feasibility(recipe)
        assert "RCP110" in rules_of(diags)
