"""Recipe payload dataflow (RCP200–RCP212): injected violations with
exact anchors, the QoS 1 acceptance pair, and a random-DAG property."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recipe import Recipe, TaskSpec
from repro.lint import check_recipe_payloads, walk

KEYS = {"probe": ("temp", "hum", "label")}


def sensor(task_id="sense", output="raw", qos=0):
    return TaskSpec(
        task_id,
        "sensor",
        outputs=[output],
        params={"device": "probe", "rate_hz": 1.0, "qos": qos},
    )


def rules_of(diagnostics):
    return [d.rule for d in diagnostics]


class TestUnproducibleReads:
    def test_rcp200_on_missing_datum_key(self):
        recipe = Recipe(
            "r",
            [
                sensor(),
                TaskSpec(
                    "d", "delta", inputs=["raw"], outputs=["out"],
                    params={"key": "pressure"},
                ),
            ],
        )
        diags = check_recipe_payloads(recipe, KEYS)
        assert rules_of(diags) == ["RCP200"]
        assert "task d" in diags[0].where
        assert "pressure" in diags[0].message

    def test_rcp200_on_missing_attribute(self):
        # Actuator wants attributes['command']; nothing produced it.
        recipe = Recipe(
            "r",
            [
                sensor(),
                TaskSpec(
                    "act", "actuator", inputs=["raw"], params={"device": "pager"}
                ),
            ],
        )
        diags = check_recipe_payloads(recipe, KEYS)
        assert rules_of(diags) == ["RCP200"]
        assert "command" in diags[0].message

    def test_key_produced_upstream_is_clean(self):
        recipe = Recipe(
            "r",
            [
                sensor(),
                TaskSpec(
                    "d", "delta", inputs=["raw"], outputs=["out"],
                    params={"key": "temp"},
                ),
            ],
        )
        assert check_recipe_payloads(recipe, KEYS) == []

    def test_unknown_device_keeps_schema_open(self):
        # Without a channel-key map absence proves nothing: no RCP200.
        recipe = Recipe(
            "r",
            [
                sensor(),
                TaskSpec(
                    "d", "delta", inputs=["raw"], outputs=["out"],
                    params={"key": "pressure"},
                ),
            ],
        )
        assert check_recipe_payloads(recipe, None) == []

    def test_select_narrows_downstream_schema(self):
        recipe = Recipe(
            "r",
            [
                sensor(),
                TaskSpec(
                    "keep", "map", inputs=["raw"], outputs=["narrow"],
                    params={"fn": "select", "keys": ["temp"]},
                ),
                TaskSpec(
                    "d", "delta", inputs=["narrow"], outputs=["out"],
                    params={"key": "hum"},
                ),
            ],
        )
        diags = check_recipe_payloads(recipe, KEYS)
        assert rules_of(diags) == ["RCP200"]
        assert "task d" in diags[0].where


class TestMergeAndRename:
    def test_rcp201_on_colliding_merge_inputs(self):
        recipe = Recipe(
            "r",
            [
                sensor("s1", "raw1"),
                sensor("s2", "raw2"),
                TaskSpec(
                    "m", "merge", inputs=["raw1", "raw2"], outputs=["joined"],
                    params={"require_all": False},
                ),
            ],
        )
        diags = check_recipe_payloads(recipe, KEYS)
        assert rules_of(diags) == ["RCP201"]
        assert "temp" in diags[0].message

    def test_rcp202_on_rename_overwrite(self):
        recipe = Recipe(
            "r",
            [
                sensor(),
                TaskSpec(
                    "ren", "map", inputs=["raw"], outputs=["out"],
                    params={"fn": "rename", "mapping": {"temp": "hum"}},
                ),
            ],
        )
        diags = check_recipe_payloads(recipe, KEYS)
        assert "RCP202" in rules_of(diags)


class TestAtLeastOnce:
    def qos1_train(self, with_dedup: bool):
        tasks = [sensor(qos=1)]
        feed = "raw"
        if with_dedup:
            tasks.append(
                TaskSpec(
                    "dd", "dedup", inputs=["raw"], outputs=["clean"],
                    params={"qos": 1},
                )
            )
            feed = "clean"
        tasks.append(
            TaskSpec(
                "train", "train", inputs=[feed],
                params={"model": "classifier", "label_key": "label", "qos": 1},
            )
        )
        return Recipe("r", tasks)

    def test_rcp210_qos1_into_train_without_dedup(self):
        # The acceptance pair's broken half: structurally valid under the
        # RCP1xx checks, but a QoS 1 redelivery re-trains the model.
        diags = check_recipe_payloads(self.qos1_train(with_dedup=False), KEYS)
        assert rules_of(diags) == ["RCP210"]
        assert "task train" in diags[0].where

    def test_dedup_on_the_path_clears_rcp210(self):
        assert check_recipe_payloads(self.qos1_train(with_dedup=True), KEYS) == []

    def test_qos0_into_train_is_clean(self):
        recipe = Recipe(
            "r",
            [
                sensor(),
                TaskSpec(
                    "train", "train", inputs=["raw"],
                    params={"model": "classifier", "label_key": "label"},
                ),
            ],
        )
        assert check_recipe_payloads(recipe, KEYS) == []

    def test_align_window_is_exempt_but_taint_flows_through(self):
        # An aligning window overwrites the same per-source slot, so it is
        # not itself corrupted — but its batches are still delivered
        # at-least-once to the learner behind it.
        recipe = Recipe(
            "r",
            [
                sensor(qos=1),
                TaskSpec(
                    "w", "window", inputs=["raw"], outputs=["batch"],
                    params={"mode": "align", "arity": 1, "qos": 1},
                ),
                TaskSpec(
                    "train", "train", inputs=["batch"],
                    params={"model": "classifier", "label_key": "label", "qos": 1},
                ),
            ],
        )
        diags = check_recipe_payloads(recipe, KEYS)
        assert rules_of(diags) == ["RCP210"]
        assert "task train" in diags[0].where

    def test_rcp211_inert_dedup(self):
        recipe = Recipe(
            "r",
            [
                sensor(),
                TaskSpec("dd", "dedup", inputs=["raw"], outputs=["clean"]),
            ],
        )
        diags = check_recipe_payloads(recipe, KEYS)
        assert rules_of(diags) == ["RCP211"]

    def test_rcp212_dedup_after_merging_operator(self):
        recipe = Recipe(
            "r",
            [
                sensor("s1", "raw1", qos=1),
                sensor("s2", "raw2", qos=1),
                TaskSpec(
                    "m", "merge", inputs=["raw1", "raw2"], outputs=["joined"],
                    params={"require_all": False, "qos": 1},
                ),
                TaskSpec(
                    "dd", "dedup", inputs=["joined"], outputs=["clean"],
                    params={"qos": 1},
                ),
            ],
        )
        diags = check_recipe_payloads(recipe, KEYS)
        assert "RCP212" in rules_of(diags)


class TestRealRecipes:
    """The shipped recipes under the real device maps (the CI gate)."""

    def test_fig5_recipe_has_no_errors(self):
        from repro.bench.scenarios import FIG5
        from repro.util.validate import Severity

        diags = check_recipe_payloads(FIG5.recipe(), FIG5.device_keys())
        assert [d for d in diags if d.severity >= Severity.WARNING] == []

    def test_paper_recipe_at_qos0_has_no_errors(self):
        from repro.bench.scenarios import PAPER, build_paper_recipe
        from repro.util.validate import Severity

        diags = check_recipe_payloads(build_paper_recipe(5.0), PAPER.device_keys())
        assert [d for d in diags if d.severity >= Severity.WARNING] == []

    def test_paper_recipe_at_qos1_trips_rcp210(self):
        # Exactly the class of recipe the RCP1xx checker accepts (QoS is
        # coherent) but whose learner state a redelivery corrupts.
        from repro.bench.scenarios import PAPER, build_paper_recipe

        diags = check_recipe_payloads(
            build_paper_recipe(5.0, qos=1), PAPER.device_keys()
        )
        assert "RCP210" in rules_of(diags)

    def test_failover_chaos_recipe_is_clean(self):
        # QoS 1 end to end, but the dedup stage guards the learner.
        from repro.registry import resolve

        failover = resolve("failover")
        assert check_recipe_payloads(failover.recipe(), failover.device_keys()) == []


# ---------------------------------------------------------------------------
# Random-DAG schema propagation property
# ---------------------------------------------------------------------------

_KEY_POOL = ("temp", "hum", "label", "lux", "co2")


@st.composite
def transform_chains(draw):
    """A sensor followed by a random chain of select/rename transforms.

    Returns (recipe, expected_keys): the expected key set is computed by
    directly interpreting the chain, independently of the lattice code.
    """
    keys = set(_KEY_POOL[: draw(st.integers(2, len(_KEY_POOL)))])
    tasks = [
        TaskSpec("sense", "sensor", outputs=["s0"], params={"device": "dev"})
    ]
    expected = set(keys)
    steps = draw(st.integers(0, 4))
    for i in range(steps):
        kind = draw(st.sampled_from(["select", "rename"]))
        if kind == "select" and expected:
            chosen = draw(
                st.lists(
                    st.sampled_from(sorted(expected)), min_size=1, unique=True
                )
            )
            params = {"fn": "select", "keys": chosen}
            expected = set(chosen)
        else:
            if not expected:
                continue
            old = draw(st.sampled_from(sorted(expected)))
            new = draw(st.sampled_from(_KEY_POOL + ("renamed",)))
            params = {"fn": "rename", "mapping": {old: new}}
            expected.discard(old)
            expected.add(new)
        tasks.append(
            TaskSpec(
                f"t{i}", "map", inputs=[f"s{i}"], outputs=[f"s{i + 1}"],
                params=params,
            )
        )
    return Recipe("chain", tasks), {"dev": tuple(sorted(keys))}, expected, steps


@given(transform_chains())
@settings(max_examples=60, deadline=None)
def test_schema_propagation_matches_direct_interpretation(case):
    recipe, device_keys, expected, steps = case
    facts = walk(recipe, device_keys)
    final = facts[recipe.producer_of(f"s{len(recipe.tasks) - 1}")].out
    assert not final.open_datum
    assert final.datum == frozenset(expected)
    # Determinism: the walk is a pure function of (recipe, device map).
    assert walk(recipe, device_keys) == facts


@given(transform_chains(), st.sampled_from(_KEY_POOL + ("renamed", "absent")))
@settings(max_examples=60, deadline=None)
def test_rcp200_fires_iff_key_unproducible(case, probe_key):
    recipe, device_keys, expected, steps = case
    reader = TaskSpec(
        "read",
        "delta",
        inputs=[f"s{len(recipe.tasks) - 1}"],
        outputs=["final"],
        params={"key": probe_key},
    )
    extended = Recipe("chain", list(recipe.tasks.values()) + [reader])
    diags = [
        d
        for d in check_recipe_payloads(extended, device_keys)
        if d.rule == "RCP200" and "task read" in d.where
    ]
    if probe_key in expected:
        assert diags == []
    else:
        assert len(diags) == 1
