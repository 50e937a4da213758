import random

import pytest

from repro.errors import ModelError
from repro.ml.linear import C, PassiveAggressive
from repro.ml.storage import SparseVector


def linearly_separable_stream(n, seed=0):
    rng = random.Random(seed)
    for _ in range(n):
        x, y = rng.gauss(0, 1), rng.gauss(0, 1)
        label = "pos" if x + 0.5 * y > 0 else "neg"
        yield {"x": x, "y": y, "bias": 1.0}, label


def test_learns_separable_concept():
    learner = PassiveAggressive()
    for features, label in linearly_separable_stream(300):
        learner.train(features, label)
    correct = 0
    total = 0
    for features, label in linearly_separable_stream(200, seed=1):
        predicted, _scores = learner.classify(features)
        correct += predicted == label
        total += 1
    assert correct / total > 0.85


def test_classify_untrained_raises():
    with pytest.raises(ModelError):
        PassiveAggressive().classify({"x": 1.0})


def test_empty_label_rejected():
    with pytest.raises(ModelError):
        PassiveAggressive().train({"x": 1.0}, "")


def test_no_update_once_margin_reaches_one():
    learner = PassiveAggressive()
    assert learner.train({"x": 1.0}, "a")  # margin 0 -> hinge loss 1 -> update
    learner.weights["a"] = SparseVector.from_dict({"x": 1.0})
    assert not learner.train({"x": 1.0}, "a")  # margin 1 -> loss 0 -> passive
    assert learner.updates == 1 and learner.weights["a"]["x"] == 1.0


def test_step_is_capped_at_c():
    learner = PassiveAggressive()
    learner.train({"x": 0.1}, "a")  # uncapped step would be 1 / 0.02 = 50
    assert learner.weights["a"]["x"] == pytest.approx(C * 0.1)


def test_labels_and_is_trained():
    learner = PassiveAggressive()
    assert not learner.is_trained
    learner.train({"x": 1.0}, "b")
    learner.train({"x": -1.0}, "a")
    assert learner.is_trained
    assert learner.labels == ["a", "b"]


def test_deterministic_tie_break():
    learner = PassiveAggressive()
    learner.weights["a"] = SparseVector()
    learner.weights["b"] = SparseVector()
    label, _ = learner.classify({"x": 1.0})
    assert label == "b"  # equal scores -> lexicographically larger label wins


def test_state_round_trip():
    learner = PassiveAggressive()
    for features, label in linearly_separable_stream(100):
        learner.train(features, label)
    clone = PassiveAggressive()
    clone.load_state(learner.to_state())
    for features, _ in linearly_separable_stream(50, seed=2):
        assert clone.classify(features)[0] == learner.classify(features)[0]
    assert clone.examples_seen == learner.examples_seen


def test_collect_and_apply_diff_round_trip():
    learner = PassiveAggressive()
    for features, label in linearly_separable_stream(50):
        learner.train(features, label)
    diff = learner.collect_diff()
    # Applying your own diff back is a no-op on the weights.
    before = {l: w.to_dict() for l, w in learner.weights.items()}
    learner.apply_mixed(diff)
    after = {l: w.to_dict() for l, w in learner.weights.items()}
    for label in before:
        for key in before[label]:
            assert after[label][key] == pytest.approx(before[label][key])


def test_diff_resets_after_apply():
    learner = PassiveAggressive()
    learner.train({"x": 1.0}, "a")
    learner.apply_mixed(learner.collect_diff())
    empty = learner.collect_diff()
    assert all(not delta for delta in empty.values())
