import random

import pytest

from repro.errors import ModelError
from repro.ml.tree import HoeffdingTreeClassifier


def xor_draw(rng):
    x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
    return {"x": x, "y": y}, ("a" if (x > 0) ^ (y > 0) else "b")


def band_draw(rng):
    x = rng.uniform(0, 10)
    return {"x": x}, ("in" if 3 < x < 7 else "out")


class TestHoeffdingTree:
    def test_learns_threshold_concept(self):
        rng = random.Random(1)
        tree = HoeffdingTreeClassifier(grace_period=40)
        for _ in range(800):
            features, label = band_draw(rng)
            tree.train(features, label)
        correct = sum(
            1
            for _ in range(300)
            for features, label in [band_draw(rng)]
            if tree.classify(features)[0] == label
        )
        assert correct / 300 > 0.95
        assert tree.depth >= 2  # a band needs two cuts

    def test_learns_xor_where_linear_fails(self):
        rng = random.Random(0)
        tree = HoeffdingTreeClassifier(
            grace_period=30, tie_threshold=0.15, max_depth=6
        )
        from repro.ml.linear import PassiveAggressive

        linear = PassiveAggressive()
        for _ in range(4000):
            features, label = xor_draw(rng)
            tree.train(features, label)
            linear.train({**features, "bias": 1.0}, label)

        def accuracy(predict):
            correct = 0
            for _ in range(400):
                features, label = xor_draw(rng)
                correct += predict(features) == label
            return correct / 400

        tree_acc = accuracy(lambda f: tree.classify(f)[0])
        linear_acc = accuracy(lambda f: linear.classify({**f, "bias": 1.0})[0])
        assert tree_acc > 0.95
        assert linear_acc < 0.65  # XOR is not linearly separable

    def test_untrained_classify_raises(self):
        with pytest.raises(ModelError):
            HoeffdingTreeClassifier().classify({"x": 1.0})

    def test_empty_label_rejected(self):
        with pytest.raises(ModelError):
            HoeffdingTreeClassifier().train({"x": 1.0}, "")

    def test_pure_stream_never_splits(self):
        tree = HoeffdingTreeClassifier(grace_period=10)
        rng = random.Random(2)
        for _ in range(500):
            tree.train({"x": rng.random()}, "only")
        assert tree.splits_installed == 0
        assert tree.classify({"x": 0.5})[0] == "only"

    def test_max_depth_respected(self):
        rng = random.Random(3)
        tree = HoeffdingTreeClassifier(
            grace_period=20, tie_threshold=0.3, max_depth=2
        )
        for _ in range(3000):
            features, label = xor_draw(rng)
            tree.train(features, label)
        assert tree.depth <= 2

    def test_missing_feature_routes_to_majority(self):
        rng = random.Random(4)
        tree = HoeffdingTreeClassifier(grace_period=40)
        for _ in range(600):
            features, label = band_draw(rng)
            tree.train(features, label)
        # Prediction with the split feature absent still yields a label.
        label, probabilities = tree.classify({})
        assert label in ("in", "out")
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_class_probabilities_sum_to_one(self):
        rng = random.Random(5)
        tree = HoeffdingTreeClassifier(grace_period=40)
        for _ in range(500):
            features, label = band_draw(rng)
            tree.train(features, label)
        probabilities = tree.class_probabilities({"x": 5.0})
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_state_round_trip(self):
        rng = random.Random(6)
        tree = HoeffdingTreeClassifier(grace_period=40)
        for _ in range(800):
            features, label = band_draw(rng)
            tree.train(features, label)
        clone = HoeffdingTreeClassifier()
        clone.load_state(tree.to_state())
        for _ in range(50):
            features, _ = band_draw(rng)
            assert clone.classify(features)[0] == tree.classify(features)[0]

    def test_param_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            HoeffdingTreeClassifier(grace_period=0)
        with pytest.raises(ConfigurationError):
            HoeffdingTreeClassifier(delta=0.9)
        with pytest.raises(ConfigurationError):
            HoeffdingTreeClassifier(max_depth=0)

    def test_datum_api(self):
        from repro.ml.features import Datum

        tree = HoeffdingTreeClassifier(grace_period=10)
        tree.train_datum(Datum.from_mapping({"x": 1.0}), "a")
        assert tree.classify_datum(Datum.from_mapping({"x": 1.0}))[0] == "a"
