"""Online multiclass linear learning: PA-I.

The classifier algorithm the middleware's ``classifier`` model uses, one of
those Jubatus ships for its ``classifier`` service: :class:`PassiveAggressive`
in its PA-I form (Crammer et al. 2006), multiclass. One weight vector per
label, prediction is the argmax margin, and an update touches the true
label's vector and the highest-scoring wrong label's vector. The learner
supports the MIX protocol through ``collect_diff`` / ``apply_mixed``
(weight deltas since the last mix; see :mod:`repro.ml.mix`).
"""

from __future__ import annotations

from typing import Any

from repro.errors import ModelError
from repro.ml.features import FeatureVector
from repro.ml.storage import SparseVector

__all__ = ["C", "PassiveAggressive"]

#: PA-I's aggressiveness cap: no update moves a weight by more than C·x.
C = 1.0


class PassiveAggressive:
    """Multiclass PA-I: scores, prediction, update and MIX bookkeeping."""

    def __init__(self) -> None:
        self.weights: dict[str, SparseVector] = {}
        self._mix_base: dict[str, SparseVector] = {}
        self.updates = 0
        self.examples_seen = 0

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def scores(self, features: FeatureVector) -> dict[str, float]:
        """Margin per known label (empty if the model is untrained)."""
        return {label: w.dot(features) for label, w in self.weights.items()}

    def classify(self, features: FeatureVector) -> tuple[str, dict[str, float]]:
        """Return ``(best_label, scores)``.

        Raises :class:`~repro.errors.ModelError` when no label has ever
        been trained — callers on the judging path check ``is_trained``.
        """
        scores = self.scores(features)
        if not scores:
            raise ModelError("classify() on an untrained model")
        # Deterministic tie-break on label name.
        best = max(scores, key=lambda label: (scores[label], label))
        return best, scores

    @property
    def is_trained(self) -> bool:
        return bool(self.weights)

    @property
    def labels(self) -> list[str]:
        return sorted(self.weights)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self, features: FeatureVector, label: str) -> bool:
        """Fold one labelled example in; returns True if weights changed."""
        if not label:
            raise ModelError("empty label")
        self.examples_seen += 1
        if label not in self.weights:
            self.weights[label] = SparseVector()
        wrong_label, margin = self._worst_margin(features, label)
        loss = 1.0 - margin
        if loss <= 0:
            return False
        # The update moves two vectors in opposite directions, so the
        # effective instance norm doubles.
        norm2 = 2.0 * sum(v * v for v in features.values())
        if norm2 <= 0:
            return False
        step = min(C, loss / norm2)
        self.weights[label].add(features, scale=step)
        if wrong_label is not None:
            self.weights[wrong_label].add(features, scale=-step)
        self.updates += 1
        return True

    def _worst_margin(
        self, features: FeatureVector, label: str
    ) -> tuple[str | None, float]:
        """Highest-scoring wrong label and the margin against it.

        Margin = score(correct) - score(best wrong); with no other label
        the margin is the correct score itself (against implicit zero).
        """
        correct = self.weights[label].dot(features)
        wrong_label: str | None = None
        wrong_score = 0.0  # implicit all-zero competitor
        for other, vector in self.weights.items():
            if other == label:
                continue
            score = vector.dot(features)
            if wrong_label is None or score > wrong_score:
                wrong_label = other
                wrong_score = score
        return wrong_label, correct - wrong_score

    # ------------------------------------------------------------------
    # MIX support (see repro.ml.mix)
    # ------------------------------------------------------------------

    def collect_diff(self) -> dict[str, dict[str, float]]:
        """Weight deltas per label since the last ``apply_mixed``."""
        diff: dict[str, dict[str, float]] = {}
        for label, vector in self.weights.items():
            base = self._mix_base.get(label, SparseVector())
            delta = vector.copy()
            delta.add(base.to_dict(), scale=-1.0)
            diff[label] = delta.to_dict()
        return diff

    def apply_mixed(self, mixed_diff: dict[str, dict[str, float]]) -> None:
        """Set weights to ``base + mixed_diff`` and advance the base."""
        for label, delta in mixed_diff.items():
            base = self._mix_base.get(label, SparseVector())
            merged = base.copy()
            merged.add(delta)
            self.weights[label] = merged
        self._mix_base = {l: v.copy() for l, v in self.weights.items()}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        return {
            "algorithm": type(self).__name__,
            "weights": {label: v.to_dict() for label, v in self.weights.items()},
            "updates": self.updates,
            "examples_seen": self.examples_seen,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        self.weights = {
            label: SparseVector.from_dict(w) for label, w in state["weights"].items()
        }
        self._mix_base = {l: v.copy() for l, v in self.weights.items()}
        self.updates = int(state.get("updates", 0))
        self.examples_seen = int(state.get("examples_seen", 0))
