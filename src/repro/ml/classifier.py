"""High-level online classifier facade.

Bundles a :class:`~repro.ml.features.FeatureExtractor` with a PA-I
:class:`~repro.ml.linear.PassiveAggressive` learner behind the two calls
the middleware's analysis classes need: ``train(datum, label)`` and
``classify(datum)``. This mirrors the Jubatus classifier client API used in
the paper's prototype.
"""

from __future__ import annotations

from typing import Any

from repro.ml.features import Datum, FeatureExtractor
from repro.ml.linear import PassiveAggressive

__all__ = ["OnlineClassifier"]


class OnlineClassifier:
    """Datum-in, label-out online multiclass classifier.

    >>> clf = OnlineClassifier()
    >>> for _ in range(3):
    ...     clf.train(Datum.from_mapping({"x": 1.0}), "hot")
    ...     clf.train(Datum.from_mapping({"x": -1.0}), "cold")
    >>> clf.classify(Datum.from_mapping({"x": 0.8})).label
    'hot'
    """

    class Result:
        """Classification outcome: best label plus per-label margins."""

        __slots__ = ("label", "scores")

        def __init__(self, label: str, scores: dict[str, float]) -> None:
            self.label = label
            self.scores = scores

        def margin(self) -> float:
            """Gap between the best and second-best scores (confidence)."""
            if len(self.scores) < 2:
                return self.scores.get(self.label, 0.0)
            ordered = sorted(self.scores.values(), reverse=True)
            return ordered[0] - ordered[1]

        def __repr__(self) -> str:  # pragma: no cover
            return f"Result({self.label!r}, margin={self.margin():.4g})"

    def __init__(self) -> None:
        self.learner = PassiveAggressive()
        self.extractor = FeatureExtractor()

    def train(self, datum: Datum, label: str) -> bool:
        """Fold in one labelled datum; True if the model changed."""
        features = self.extractor.extract(datum, update=True)
        return self.learner.train(features, label)

    def classify(self, datum: Datum) -> "OnlineClassifier.Result":
        """Classify one datum (raises ModelError if never trained)."""
        features = self.extractor.extract(datum, update=False)
        label, scores = self.learner.classify(features)
        return self.Result(label, scores)

    @property
    def is_trained(self) -> bool:
        return self.learner.is_trained

    @property
    def labels(self) -> list[str]:
        return self.learner.labels

    def to_state(self) -> dict[str, Any]:
        return self.learner.to_state()

    def load_state(self, state: dict[str, Any]) -> None:
        self.learner.load_state(state)
