from repro.core.recipe import Recipe, TaskSpec
from repro.core.splitter import RecipeSplit, SubTask, shard_of


def test_split_preserves_stage_order():
    recipe = Recipe(
        "r",
        [
            TaskSpec("s1", "sensor", outputs=["a"]),
            TaskSpec("s2", "sensor", outputs=["b"]),
            TaskSpec("join", "merge", inputs=["a", "b"], outputs=["c"]),
            TaskSpec("end", "train", inputs=["c"]),
        ],
    )
    subtasks = RecipeSplit().split(recipe)
    assert [s.subtask_id for s in subtasks] == ["s1", "s2", "join", "end"]
    assert [s.stage_index for s in subtasks] == [0, 0, 1, 2]


def test_split_shards_parallel_tasks():
    recipe = Recipe(
        "r",
        [
            TaskSpec("src", "sensor", outputs=["raw"]),
            TaskSpec("work", "map", inputs=["raw"], outputs=["out"], parallelism=3),
        ],
    )
    subtasks = RecipeSplit().split(recipe)
    shards = [s for s in subtasks if s.task_id == "work"]
    assert [s.subtask_id for s in shards] == ["work#0", "work#1", "work#2"]
    assert [s.shard_index for s in shards] == [0, 1, 2]
    assert all(s.shard_count == 3 for s in shards)
    assert all(s.inputs == ["raw"] for s in shards)


def test_shard_of_stable_and_in_range():
    for count in (1, 2, 7):
        for sid in ("a", "b", "sample-123"):
            shard = shard_of(sid, count)
            assert 0 <= shard < count
            assert shard == shard_of(sid, count)  # deterministic
    assert shard_of("anything", 1) == 0


def test_shard_of_distributes():
    counts = [0, 0, 0]
    for i in range(300):
        counts[shard_of(f"sample-{i}", 3)] += 1
    assert all(c > 50 for c in counts)


def test_subtask_dict_round_trip():
    subtask = SubTask(
        subtask_id="t#1",
        task_id="t",
        operator="map",
        inputs=["a"],
        outputs=["b"],
        params={"fn": "identity"},
        capabilities=["x"],
        pin_to="m",
        stage_index=2,
        shard_index=1,
        shard_count=4,
    )
    clone = SubTask.from_dict(subtask.to_dict())
    assert clone == subtask


def test_pin_and_capabilities_propagate():
    recipe = Recipe(
        "r",
        [
            TaskSpec(
                "src",
                "sensor",
                outputs=["raw"],
                capabilities=["sensor:accel"],
                pin_to="pi-1",
            )
        ],
    )
    subtask = RecipeSplit().split(recipe)[0]
    assert subtask.capabilities == ["sensor:accel"]
    assert subtask.pin_to == "pi-1"
