import re

import pytest

from repro.core.flow import FlowRecord
from repro.core.models import build_flow_model
from repro.errors import ModelError, RecipeError
from repro.ml.features import Datum


def record(values, attributes=None, sample_id="s"):
    return FlowRecord(
        sample_id=sample_id,
        source="src",
        sensed_at=0.0,
        datum=Datum.from_mapping(values),
        attributes=dict(attributes or {}),
    )


class TestFactory:
    def test_kinds(self):
        for kind in ("classifier", "anomaly"):
            model = build_flow_model({"model": kind})
            assert model is not None

    def test_default_is_classifier(self):
        model = build_flow_model({})
        assert type(model).__name__ == "ClassifierFlowModel"

    def test_unknown_kind(self):
        with pytest.raises(RecipeError):
            build_flow_model({"model": "dnn"})

    def test_bad_params(self):
        with pytest.raises(RecipeError):
            build_flow_model({"model": "classifier", "bogus_param": 1})

    @pytest.mark.parametrize(
        "params",
        [
            {"model": "regression"},
            {"model": "cluster"},
            {"model": "knn"},
            {"model": "tree"},
            {"model": "anomaly", "detector": "lof"},
            {"model": "classifier", "algorithm": "arow"},
        ],
        ids=["regression", "cluster", "knn", "tree", "lof", "algorithm"],
    )
    def test_rejection_lists_the_kinds(self, params):
        with pytest.raises(RecipeError, match=re.escape("['anomaly', 'classifier']")):
            build_flow_model(params)


class TestClassifierFlowModel:
    def test_label_from_datum_string(self):
        model = build_flow_model({"model": "classifier", "label_key": "activity"})
        info = model.train(record({"x": 1.0, "label": "cold", "activity": "hot"}))
        assert info["trained"] is True and info["label"] == "hot"

    def test_label_from_attributes(self):
        model = build_flow_model({"model": "classifier"})
        info = model.train(record({"x": 1.0}, attributes={"label": "cold"}))
        assert info["label"] == "cold"

    def test_no_label_no_train(self):
        model = build_flow_model({"model": "classifier"})
        info = model.train(record({"x": 1.0}))
        assert info["trained"] is False
        assert not model.ready

    def test_label_stripped_from_features(self):
        """The label must not leak into the feature vector."""
        model = build_flow_model({"model": "classifier", "label_key": "label"})
        for i in range(10):
            model.train(record({"x": 1.0, "label": "a" if i % 2 else "b"}))
        learner = model.mix_model()
        for vector in learner.weights.values():
            assert all(not k.startswith("str$label") for k in vector.keys())

    def test_judge(self):
        model = build_flow_model({"model": "classifier"})
        model.train(record({"x": 1.0, "label": "p"}))
        model.train(record({"x": -1.0, "label": "n"}))
        out = model.judge(record({"x": 2.0}))
        assert out["label"] == "p"
        assert "margin" in out

    def test_state_round_trip(self):
        model = build_flow_model({"model": "classifier"})
        model.train(record({"x": 1.0, "label": "p"}))
        clone = build_flow_model({"model": "classifier"})
        clone.import_state(model.export_state())
        assert clone.ready
        assert clone.judge(record({"x": 1.0}))["label"] == "p"


class TestAnomalyFlowModel:
    def test_zscore_flags_outlier(self):
        model = build_flow_model(
            {"model": "anomaly", "detector": "zscore", "min_samples": 5, "threshold": 4.0}
        )
        import random

        rng = random.Random(0)
        for _ in range(100):
            model.judge(record({"v": rng.gauss(0, 1)}))
        out = model.judge(record({"v": 50.0}))
        assert out["anomalous"] is True and out["score"] > 4.0

    def test_unknown_detector(self):
        with pytest.raises(RecipeError):
            build_flow_model({"model": "anomaly", "detector": "autoencoder"})

    def test_snapshots_unsupported(self):
        model = build_flow_model({"model": "anomaly"})
        with pytest.raises(ModelError):
            model.export_state()
        with pytest.raises(ModelError):
            model.mix_model()
