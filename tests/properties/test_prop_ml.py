"""Property tests on the ML substrate's invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.linear import PassiveAggressive
from repro.ml.mix import average_diffs
from repro.ml.storage import SparseVector

keys = st.text(alphabet="xyzw", min_size=1, max_size=3)
finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
vec = st.dictionaries(keys, finite, max_size=5)


@given(a=vec, b=vec)
def test_sparse_dot_commutes_with_dense(a, b):
    sparse = SparseVector(a)
    dense = sum(a.get(k, 0.0) * v for k, v in b.items())
    assert math.isclose(sparse.dot(b), dense, rel_tol=1e-9, abs_tol=1e-9)


@given(a=vec, b=vec, scale=finite)
def test_sparse_add_matches_dense(a, b, scale):
    sparse = SparseVector(a)
    sparse.add(b, scale=scale)
    for key in set(a) | set(b):
        expected = a.get(key, 0.0) + scale * b.get(key, 0.0)
        assert math.isclose(sparse[key], expected, rel_tol=1e-9, abs_tol=1e-9)


@given(a=vec)
def test_sparse_never_stores_zeros(a):
    sparse = SparseVector(a)
    sparse.add({k: -v for k, v in a.items()})
    assert all(value != 0.0 for _key, value in sparse)


@given(diffs=st.lists(
    st.dictionaries(st.sampled_from(["l1", "l2"]), vec, max_size=2),
    min_size=1,
    max_size=5,
))
def test_average_diffs_bounded_by_extremes(diffs):
    mixed = average_diffs(diffs)
    for label, features in mixed.items():
        for key, value in features.items():
            contributions = [d.get(label, {}).get(key, 0.0) for d in diffs]
            assert min(contributions) - 1e-9 <= value <= max(contributions) + 1e-9


@given(diff=st.dictionaries(st.sampled_from(["l1", "l2"]), vec, min_size=1, max_size=2))
def test_average_of_identical_diffs_is_identity(diff):
    mixed = average_diffs([diff, diff, diff])
    for label, features in diff.items():
        for key, value in features.items():
            if value != 0.0:
                assert math.isclose(mixed[label][key], value, rel_tol=1e-9)


@settings(max_examples=25)
@given(
    examples=st.lists(
        st.tuples(vec.filter(bool), st.sampled_from(["a", "b"])),
        min_size=1,
        max_size=40,
    ),
)
def test_training_never_crashes_and_state_round_trips(examples):
    learner = PassiveAggressive()
    for features, label in examples:
        learner.train(features, label)
    state = learner.to_state()
    clone = PassiveAggressive()
    clone.load_state(state)
    probe = {"x": 1.0, "y": -1.0}
    assert clone.classify(probe)[0] == learner.classify(probe)[0]


@settings(max_examples=25)
@given(
    examples=st.lists(
        st.tuples(vec.filter(bool), st.sampled_from(["a", "b"])),
        min_size=2,
        max_size=30,
    )
)
def test_mix_of_clones_is_fixed_point(examples):
    """Mixing N identical learners must not change any of them."""
    learners = [PassiveAggressive() for _ in range(3)]
    for learner in learners:
        for features, label in examples:
            learner.train(features, label)
    mixed = average_diffs([learner.collect_diff() for learner in learners])
    reference = {
        label: dict(v.to_dict()) for label, v in learners[0].weights.items()
    }
    learners[0].apply_mixed(mixed)
    for label, expected in reference.items():
        got = learners[0].weights[label].to_dict()
        for key, value in expected.items():
            assert math.isclose(got.get(key, 0.0), value, rel_tol=1e-9, abs_tol=1e-9)
