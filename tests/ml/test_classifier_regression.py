import random

import pytest

from repro.errors import ModelError
from repro.ml.classifier import OnlineClassifier
from repro.ml.features import Datum
from repro.ml.regression import PARegression


class TestOnlineClassifier:
    def test_train_and_classify(self):
        clf = OnlineClassifier()
        for _ in range(5):
            clf.train(Datum.from_mapping({"x": 1.0}), "hot")
            clf.train(Datum.from_mapping({"x": -1.0}), "cold")
        result = clf.classify(Datum.from_mapping({"x": 0.9}))
        assert result.label == "hot"
        assert result.margin() > 0

    def test_untrained_raises(self):
        with pytest.raises(ModelError):
            OnlineClassifier().classify(Datum.from_mapping({"x": 1.0}))

    def test_labels_property(self):
        clf = OnlineClassifier()
        clf.train(Datum.from_mapping({"x": 1.0}), "b")
        clf.train(Datum.from_mapping({"x": 1.0}), "a")
        assert clf.labels == ["a", "b"]
        assert clf.is_trained

    def test_state_round_trip(self):
        clf = OnlineClassifier()
        rng = random.Random(3)
        for _ in range(200):
            x = rng.gauss(0, 1)
            clf.train(Datum.from_mapping({"x": x}), "p" if x > 0 else "n")
        clone = OnlineClassifier()
        clone.load_state(clf.to_state())
        d = Datum.from_mapping({"x": 0.7})
        assert clone.classify(d).label == clf.classify(d).label

    def test_margin_single_label(self):
        clf = OnlineClassifier()
        clf.train(Datum.from_mapping({"x": 1.0}), "only")
        result = clf.classify(Datum.from_mapping({"x": 1.0}))
        assert result.label == "only"

    def test_string_features(self):
        clf = OnlineClassifier()
        for _ in range(5):
            clf.train(Datum.from_mapping({"weather": "rain"}), "inside")
            clf.train(Datum.from_mapping({"weather": "sun"}), "outside")
        assert clf.classify(Datum.from_mapping({"weather": "rain"})).label == "inside"


class TestPARegression:
    def test_learns_linear_function(self):
        reg = PARegression(epsilon=0.01)
        rng = random.Random(1)
        for _ in range(600):
            x = rng.uniform(-1, 1)
            reg.train(Datum.from_mapping({"x": x}), 2.0 * x - 1.0)
        assert reg.predict(Datum.from_mapping({"x": 0.5})) == pytest.approx(0.0, abs=0.1)

    def test_epsilon_tube_suppresses_updates(self):
        reg = PARegression(epsilon=10.0)
        assert reg.train_features({"x": 1.0}, 5.0) is False
        assert reg.updates == 0
        assert reg.examples_seen == 1

    def test_c_caps_step(self):
        reg = PARegression(c=0.1, epsilon=0.0)
        reg.train_features({"x": 1.0}, 100.0)
        assert reg.weights["x"] <= 0.1 + 1e-12

    def test_state_round_trip(self):
        reg = PARegression()
        for i in range(50):
            reg.train_features({"x": float(i % 5)}, float(i % 5) * 3)
        clone = PARegression()
        clone.load_state(reg.to_state())
        assert clone.predict_features({"x": 2.0}) == pytest.approx(
            reg.predict_features({"x": 2.0})
        )

    def test_mix_diff_round_trip(self):
        reg = PARegression(epsilon=0.0)
        reg.train_features({"x": 1.0}, 1.0)
        diff = reg.collect_diff()
        assert "_regression" in diff
        reg.apply_mixed(diff)
        assert not reg.collect_diff()["_regression"]  # base advanced

    def test_invalid_params(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            PARegression(c=0.0)
        with pytest.raises(ConfigurationError):
            PARegression(epsilon=-1.0)
