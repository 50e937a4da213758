"""Property tests: one graph pass, two policies.

``Recipe`` raises on the first problem of :func:`graph_problems` that is
not an unconsumed stream; ``check_recipe_dict`` reports every problem as a
finding. Drawn over recipe dicts with duplicate ids, own / foreign /
malformed external inputs, stream names with and without ``:``, several
producers per stream, self-loops, cycles, unknown fields and operators.
An operator's params are its ``settings``' to parse, not the
constructor's: their RCP100 (on a task, not a task entry) is a finding
the constructed recipe still gets.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recipe import Recipe
from repro.errors import RecipeError
from repro.lint import check_recipe, check_recipe_dict

#: Produced streams, one of them with a ``:`` in its name.
STREAMS = ["s0", "s1", "s2", "s3", "app:s0"]
#: Consumed streams: own, foreign ("other:...") and malformed external.
INPUTS = ["s0", "s1", "s2", "s3", "other:s0", ":s0", "s0:"]
OPERATORS = ["sensor", "map", "train", "window", "merge", "mix", "no-such-op"]
#: Constructor order of the structural rules: every malformed task, then
#: duplicate ids, then the graph pass in its own order.
_STRUCTURAL = {"RCP100": 0, "RCP101": 1, "RCP102": 2, "RCP103": 2, "RCP104": 2}


def _structural(diagnostic):
    """A finding the constructor raises on (operator params are not one)."""
    is_param = diagnostic.rule == "RCP100" and ":task " in diagnostic.where
    return diagnostic.rule in _STRUCTURAL and not is_param


@st.composite
def recipe_dicts(draw):
    tasks = []
    for index in range(draw(st.integers(1, 6))):
        # Mostly well-formed (own output, inputs from earlier tasks), so
        # that accepted recipes are common; any stream, any wiring otherwise.
        own = st.just([f"s{index}"] if index < 4 else [])
        upstream = [f"s{i}" for i in range(min(index, 4))] + ["other:s0"]
        task = {
            "id": draw(st.sampled_from([f"t{index}"] * 4 + ["t0"])),
            "operator": draw(st.sampled_from(OPERATORS)),
            "inputs": draw(
                st.one_of(
                    st.lists(st.sampled_from(upstream), max_size=2, unique=True),
                    st.lists(st.sampled_from(INPUTS), max_size=3),
                )
            ),
            "outputs": draw(
                st.one_of(own, st.lists(st.sampled_from(STREAMS), max_size=2))
            ),
            "params": draw(
                st.fixed_dictionaries({}, optional={"qos": st.sampled_from([0, 1])})
            ),
            "parallelism": draw(st.integers(1, 3)),
        }
        if draw(st.integers(0, 29)) == 29:
            task["priority"] = 1  # an unknown task field
        tasks.append(task)
    return {"recipe": "app", "tasks": tasks}


def _rows(diagnostics):
    return sorted(
        (d.rule, str(d.severity), d.where, d.message, d.hint or "")
        for d in diagnostics
    )


@settings(max_examples=400)
@given(data=recipe_dicts())
def test_constructor_raises_iff_the_checker_finds_a_structural_error(data):
    findings = check_recipe_dict(data)
    errors = sorted(
        (d for d in findings if _structural(d)),
        key=lambda d: _STRUCTURAL[d.rule],
    )
    try:
        recipe = Recipe.from_dict(data)
    except RecipeError as exc:
        assert errors, f"rejected without a finding: {exc}"
        assert errors[0].message.removeprefix("malformed task: ") in str(exc)
        return
    assert not errors, [d.format() for d in errors]
    # Accepted means a DAG: every internal input is produced strictly earlier.
    position = {tid: i for i, tid in enumerate(recipe.topological_order)}
    assert sorted(position) == sorted(recipe.tasks)
    for tid, task in recipe.tasks.items():
        for stream in task.inputs:
            if ":" not in stream:
                assert position[recipe.producer_of(stream)] < position[tid]
    # On a constructed recipe only the non-structural findings remain.
    assert _rows(check_recipe(recipe)) == _rows(findings)
