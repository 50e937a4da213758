"""Hoeffding tree (VFDT) — an online decision tree classifier.

Linear learners (the Jubatus classifier family in :mod:`repro.ml.linear`)
cannot represent concepts like "hot AND dark" or XOR-shaped regions, which
IoT rule-like contexts often are. A Hoeffding tree (Domingos & Hulten,
"Mining High-Speed Data Streams", KDD 2000) grows a decision tree from a
stream: each leaf accumulates statistics, and a split is installed once
the Hoeffding bound guarantees — with confidence ``1 - delta`` — that the
best split found on the sample seen so far is the best split overall.

This implementation keeps, per leaf, a bounded reservoir of (value, label)
pairs per numeric feature. Split candidates are midpoints between adjacent
class-distinct values; gain is entropy reduction; missing features route
to the split's majority side. Strictly incremental: O(features) per train
step plus an O(reservoir log reservoir) split evaluation every
``grace_period`` examples at a leaf.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Any

from repro.errors import ModelError
from repro.ml.features import Datum
from repro.util.validate import require_in_range, require_positive

__all__ = ["HoeffdingTreeClassifier"]


def _entropy(counts: Counter) -> float:
    # Integer counts: addition is associative, any order gives one answer.
    total = sum(counts.values())  # repro: lint-ok[DET006]
    if total == 0:
        return 0.0
    result = 0.0
    for count in counts.values():
        if count > 0:
            p = count / total
            result -= p * math.log2(p)
    return result


class _Node:
    """A tree node: either a leaf (collecting statistics) or a split."""

    __slots__ = (
        "feature",
        "threshold",
        "left",
        "right",
        "majority_goes_left",
        "class_counts",
        "reservoir",
        "seen_since_eval",
        "depth",
    )

    def __init__(self, depth: int) -> None:
        self.feature: str | None = None  # None = leaf
        self.threshold = 0.0
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.majority_goes_left = True
        self.class_counts: Counter = Counter()
        self.reservoir: dict[str, list[tuple[float, str]]] = {}
        self.seen_since_eval = 0
        self.depth = depth

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class HoeffdingTreeClassifier:
    """Online decision tree over the numeric values of datums.

    Parameters
    ----------
    grace_period:
        Examples a leaf absorbs between split evaluations.
    delta:
        Hoeffding bound confidence parameter (smaller = more conservative).
    tie_threshold:
        Split anyway when the bound shrinks below this (breaks ties
        between near-equal attributes).
    max_depth:
        Hard growth limit.
    reservoir_size:
        Per-feature sample memory per leaf (uniform reservoir sampling).
    """

    def __init__(
        self,
        grace_period: int = 50,
        delta: float = 1e-5,
        tie_threshold: float = 0.05,
        max_depth: int = 8,
        reservoir_size: int = 256,
        seed: int = 0,
    ) -> None:
        require_positive(grace_period, "grace_period")
        require_in_range(delta, 1e-12, 0.5, "delta")
        require_positive(max_depth, "max_depth")
        require_positive(reservoir_size, "reservoir_size")
        self.grace_period = grace_period
        self.delta = delta
        self.tie_threshold = tie_threshold
        self.max_depth = max_depth
        self.reservoir_size = reservoir_size
        self._rng = random.Random(seed)
        self._root = _Node(depth=0)
        self.examples_seen = 0
        self.splits_installed = 0

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self, features: dict[str, float], label: str) -> bool:
        """Absorb one example; returns True if the tree grew."""
        if not label:
            raise ModelError("empty label")
        self.examples_seen += 1
        leaf = self._route(features)
        leaf.class_counts[label] += 1
        for feature, value in features.items():
            bucket = leaf.reservoir.setdefault(feature, [])
            if len(bucket) < self.reservoir_size:
                bucket.append((float(value), label))
            else:
                # Uniform reservoir replacement over the leaf's lifetime.
                index = self._rng.randrange(leaf.class_counts.total())
                if index < self.reservoir_size:
                    bucket[index % self.reservoir_size] = (float(value), label)
        leaf.seen_since_eval += 1
        if (
            leaf.seen_since_eval >= self.grace_period
            and leaf.depth < self.max_depth
            and len(leaf.class_counts) > 1
        ):
            leaf.seen_since_eval = 0
            return self._try_split(leaf)
        return False

    def train_datum(self, datum: Datum, label: str) -> bool:
        return self.train(dict(datum.num_values), label)

    def _route(self, features: dict[str, float]) -> _Node:
        node = self._root
        while not node.is_leaf:
            value = features.get(node.feature)
            if value is None:
                go_left = node.majority_goes_left
            else:
                go_left = value <= node.threshold
            node = node.left if go_left else node.right  # type: ignore[assignment]
        return node

    # ------------------------------------------------------------------
    # Split machinery
    # ------------------------------------------------------------------

    def _best_split_for_feature(
        self, samples: list[tuple[float, str]]
    ) -> tuple[float, float] | None:
        """(gain, threshold) of the best binary split, or None."""
        if len(samples) < 2:
            return None
        ordered = sorted(samples, key=lambda pair: pair[0])
        total_counts = Counter(label for _v, label in ordered)
        base = _entropy(total_counts)
        n = len(ordered)
        left_counts: Counter = Counter()
        best: tuple[float, float] | None = None
        for i in range(n - 1):
            value, label = ordered[i]
            left_counts[label] += 1
            next_value = ordered[i + 1][0]
            if next_value == value:
                continue  # can only cut between distinct values
            left_n = i + 1
            right_counts = total_counts - left_counts
            gain = base - (
                left_n / n * _entropy(left_counts)
                + (n - left_n) / n * _entropy(right_counts)
            )
            if best is None or gain > best[0]:
                best = (gain, (value + next_value) / 2.0)
        return best

    def _try_split(self, leaf: _Node) -> bool:
        candidates: list[tuple[float, str, float]] = []  # (gain, feature, thr)
        for feature, samples in leaf.reservoir.items():
            result = self._best_split_for_feature(samples)
            if result is not None:
                candidates.append((result[0], feature, result[1]))
        if not candidates:
            return False
        candidates.sort(reverse=True)
        best_gain = candidates[0][0]
        second_gain = candidates[1][0] if len(candidates) > 1 else 0.0
        n = leaf.class_counts.total()
        value_range = math.log2(max(2, len(leaf.class_counts)))
        epsilon = math.sqrt(
            value_range * value_range * math.log(1.0 / self.delta) / (2.0 * n)
        )
        if best_gain <= 0.0:
            return False
        if (best_gain - second_gain) <= epsilon and epsilon >= self.tie_threshold:
            return False
        _gain, feature, threshold = candidates[0]
        self._install_split(leaf, feature, threshold)
        return True

    def _install_split(self, leaf: _Node, feature: str, threshold: float) -> None:
        left = _Node(depth=leaf.depth + 1)
        right = _Node(depth=leaf.depth + 1)
        # Seed the children's class counts from the reservoir so they
        # predict sensibly before fresh examples arrive.
        for value, label in leaf.reservoir.get(feature, ()):
            (left if value <= threshold else right).class_counts[label] += 1
        leaf.feature = feature
        leaf.threshold = threshold
        leaf.majority_goes_left = (
            left.class_counts.total() >= right.class_counts.total()
        )
        leaf.left = left
        leaf.right = right
        leaf.reservoir = {}
        leaf.class_counts = Counter()
        self.splits_installed += 1

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def class_probabilities(self, features: dict[str, float]) -> dict[str, float]:
        """Label distribution at the reached leaf (empty if untrained)."""
        node = self._root
        while not node.is_leaf:
            value = features.get(node.feature)
            go_left = (
                node.majority_goes_left if value is None else value <= node.threshold
            )
            node = node.left if go_left else node.right  # type: ignore[assignment]
        total = node.class_counts.total()
        if total == 0:
            return {}
        return {label: count / total for label, count in node.class_counts.items()}

    def classify(self, features: dict[str, float]) -> tuple[str, dict[str, float]]:
        probabilities = self.class_probabilities(features)
        if not probabilities:
            # Fall back to the global distribution (or fail if untrained).
            merged = self._gather_counts(self._root)
            if not merged:
                raise ModelError("classify() on an untrained tree")
            total = sum(merged.values())  # repro: lint-ok[DET006] int counts
            probabilities = {label: c / total for label, c in merged.items()}
        best = max(probabilities, key=lambda label: (probabilities[label], label))
        return best, probabilities

    def classify_datum(self, datum: Datum) -> tuple[str, dict[str, float]]:
        return self.classify(dict(datum.num_values))

    def _gather_counts(self, node: _Node) -> Counter:
        if node.is_leaf:
            return Counter(node.class_counts)
        return self._gather_counts(node.left) + self._gather_counts(node.right)  # type: ignore[arg-type]

    @property
    def is_trained(self) -> bool:
        return self.examples_seen > 0

    @property
    def depth(self) -> int:
        def walk(node: _Node) -> int:
            if node.is_leaf:
                return node.depth
            return max(walk(node.left), walk(node.right))  # type: ignore[arg-type]

        return walk(self._root)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        def encode(node: _Node) -> dict[str, Any]:
            if node.is_leaf:
                return {
                    "leaf": True,
                    "counts": dict(node.class_counts),
                    "depth": node.depth,
                }
            return {
                "leaf": False,
                "feature": node.feature,
                "threshold": node.threshold,
                "majority_left": node.majority_goes_left,
                "depth": node.depth,
                "left": encode(node.left),  # type: ignore[arg-type]
                "right": encode(node.right),  # type: ignore[arg-type]
            }

        return {
            "algorithm": "hoeffding_tree",
            "examples_seen": self.examples_seen,
            "root": encode(self._root),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        def decode(data: dict[str, Any]) -> _Node:
            node = _Node(depth=int(data.get("depth", 0)))
            if data["leaf"]:
                node.class_counts = Counter(
                    {str(k): int(v) for k, v in data["counts"].items()}
                )
                return node
            node.feature = str(data["feature"])
            node.threshold = float(data["threshold"])
            node.majority_goes_left = bool(data["majority_left"])
            node.left = decode(data["left"])
            node.right = decode(data["right"])
            return node

        self._root = decode(state["root"])
        self.examples_seen = int(state.get("examples_seen", 0))
