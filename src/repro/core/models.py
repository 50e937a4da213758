"""Flow models: the bridge between flow records and the ML substrate.

LearningClass and JudgingClass are model-agnostic; a :class:`FlowModel`
adapts one of the online learners to the two verbs the analysis mechanism
needs — ``train(record)`` and ``judge(record)`` — and declares whether it
can take part in MIX. Two kinds ship, the two the applications use: the
PA-I ``classifier`` and the robust z-score ``anomaly`` detector. Recipe
params are checked once by :func:`model_spec` into the class and options
that build the model, so recipes stay declarative.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, NamedTuple

from repro.core.flow import FlowRecord
from repro.core.recipe import parse_param
from repro.errors import ModelError, RecipeError
from repro.ml.anomaly import RobustZScore
from repro.ml.classifier import OnlineClassifier
from repro.ml.features import Datum

__all__ = ["FlowModel", "ModelSpec", "model_spec", "build_flow_model"]


class FlowModel(ABC):
    """One online model with record-level train/judge verbs."""

    #: True if the underlying model supports collect_diff/apply_mixed.
    mixable = False
    #: The attributes :meth:`judge` returns.
    judge_attrs: tuple[str, ...] = ()

    @abstractmethod
    def train(self, record: FlowRecord) -> dict[str, Any]:
        """Absorb one record; returns training info (for traces)."""

    @abstractmethod
    def judge(self, record: FlowRecord) -> dict[str, Any]:
        """Evaluate one record; returns judgement attributes."""

    @property
    @abstractmethod
    def ready(self) -> bool:
        """Can :meth:`judge` produce meaningful output yet?"""

    def mix_model(self) -> Any:
        """The Mixable model object (only if ``mixable``)."""
        raise ModelError(f"{type(self).__name__} does not support MIX")

    def true_label(self, record: FlowRecord) -> str | None:
        """The supervision label carried by ``record``, if any (used for
        prequential accuracy tracking in LearningClass)."""
        return None

    def export_state(self) -> dict[str, Any]:
        """Serializable model snapshot (for train->judge model shipping)."""
        raise ModelError(f"{type(self).__name__} does not support snapshots")

    def import_state(self, state: dict[str, Any]) -> None:
        """Load a snapshot produced by :meth:`export_state`."""
        raise ModelError(f"{type(self).__name__} does not support snapshots")


class ClassifierFlowModel(FlowModel):
    """Multiclass PA-I classification; the label rides in the datum or the
    record attributes under ``label_key``."""

    mixable = True
    judge_attrs = ("label", "margin")

    def __init__(self, label_key: str = "label") -> None:
        self.label_key = label_key
        self.classifier = OnlineClassifier()

    def _features_datum(self, record: FlowRecord) -> Datum:
        """The datum without the label (it must not leak into features)."""
        datum, key = record.datum, self.label_key
        return Datum(
            string_values={k: v for k, v in datum.string_values.items() if k != key},
            num_values={k: v for k, v in datum.num_values.items() if k != key},
        )

    def true_label(self, record: FlowRecord) -> str | None:
        label = record.datum.string_values.get(self.label_key)
        if label is None:
            label = record.attributes.get(self.label_key)
        return str(label) if label is not None else None

    def train(self, record: FlowRecord) -> dict[str, Any]:
        label = self.true_label(record)
        if label is None:
            return {"trained": False, "reason": "no-label"}
        updated = self.classifier.train(self._features_datum(record), label)
        return {"trained": True, "updated": updated, "label": label}

    def judge(self, record: FlowRecord) -> dict[str, Any]:
        result = self.classifier.classify(self._features_datum(record))
        return {"label": result.label, "margin": result.margin()}

    @property
    def ready(self) -> bool:
        return self.classifier.is_trained

    def mix_model(self) -> Any:
        return self.classifier.learner

    def export_state(self) -> dict[str, Any]:
        return self.classifier.to_state()

    def import_state(self, state: dict[str, Any]) -> None:
        self.classifier.load_state(state)


class AnomalyFlowModel(FlowModel):
    """Streaming robust z-score anomaly scoring. Judging both scores *and*
    learns (the detector adapts to the live stream), so a single 'anomaly'
    task covers the Fig. 5 'Anomaly detection' nodes."""

    judge_attrs = ("score", "anomalous")

    def __init__(self, threshold: float = 4.0, min_samples: int = 10) -> None:
        self.detector = RobustZScore(min_samples=min_samples)
        self.threshold = threshold
        self._seen = 0

    def train(self, record: FlowRecord) -> dict[str, Any]:
        score = self.detector.add(record.datum)
        self._seen += 1
        return {"trained": True, "score": score}

    def judge(self, record: FlowRecord) -> dict[str, Any]:
        score = self.train(record)["score"]
        return {"score": score, "anomalous": bool(score > self.threshold)}

    @property
    def ready(self) -> bool:
        return self._seen > 0


_MODEL_KINDS: dict[str, type[FlowModel]] = {
    "classifier": ClassifierFlowModel,
    "anomaly": AnomalyFlowModel,
}
#: A checked model configuration: the kind's class and its constructor options.
ModelSpec = NamedTuple("ModelSpec", [("cls", type[FlowModel]), ("options", dict)])


def model_spec(params: dict[str, Any]) -> ModelSpec:
    """Check model params once, building nothing. ``params['model']`` selects
    the kind — ``classifier`` (the default; param ``label_key``) or
    ``anomaly`` (params ``detector``, ``zscore`` only, ``threshold`` and
    ``min_samples``). Any other kind or param, or a value that does not
    convert, is a :class:`~repro.errors.RecipeError` naming the param and
    the kinds."""
    config = dict(params)
    kind, kinds = str(config.pop("model", "classifier")), sorted(_MODEL_KINDS)
    options: dict[str, Any] = {}
    if kind == "classifier":
        options["label_key"] = str(config.pop("label_key", "label"))
    elif kind == "anomaly":
        if config.pop("detector", "zscore") != "zscore":
            raise RecipeError(f"param 'detector': only 'zscore' (models: {kinds})")
        options["threshold"] = parse_param("threshold", config.pop("threshold", 4.0))
        min_samples = config.pop("min_samples", 10)
        options["min_samples"] = parse_param("min_samples", min_samples, int, positive=True)
    else:
        raise RecipeError(f"param 'model': unknown kind {kind!r}; choose from {kinds}")
    if config:
        raise RecipeError(f"bad params for model {kind!r} (models: {kinds}): {sorted(config)}")
    return ModelSpec(_MODEL_KINDS[kind], options)


def build_flow_model(params: dict[str, Any]) -> FlowModel:
    """Construct a flow model from recipe params (see :func:`model_spec`)."""
    spec = model_spec(params)
    return spec.cls(**spec.options)
