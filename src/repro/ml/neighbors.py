"""Online nearest-neighbour store (Jubatus ``nearest_neighbor`` /
``recommender`` substitute).

Keeps a bounded window of recent labelled points and answers similarity
queries — "which known situations look like the current one". Used for
k-NN classification on streams where a linear boundary is too rigid, and
for similar-row lookup (the recommender use case).

Distances: Euclidean over the union of keys (missing = 0) or cosine
similarity. O(window) per query, like :class:`~repro.ml.anomaly.LofLite`.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any

from repro.errors import ModelError
from repro.ml.features import Datum
from repro.util.validate import require_positive

__all__ = ["NearestNeighbors", "Neighbor"]


@dataclass(frozen=True)
class Neighbor:
    """One similarity query hit."""

    row_id: str
    distance: float
    label: str | None
    values: dict[str, float]


def _euclidean(a: dict[str, float], b: dict[str, float]) -> float:
    keys = sorted(set(a) | set(b))
    return math.sqrt(sum((a.get(k, 0.0) - b.get(k, 0.0)) ** 2 for k in keys))


def _cosine_distance(a: dict[str, float], b: dict[str, float]) -> float:
    dot = sum(value * b.get(key, 0.0) for key, value in a.items())
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a <= 0.0 or norm_b <= 0.0:
        return 1.0
    return 1.0 - dot / (norm_a * norm_b)

_METRICS = {"euclidean": _euclidean, "cosine": _cosine_distance}


class NearestNeighbors:
    """Bounded-window nearest-neighbour index over datum rows.

    >>> nn = NearestNeighbors(window=16)
    >>> nn.set_row("r1", Datum.from_mapping({"x": 1.0}), label="hot")
    >>> nn.set_row("r2", Datum.from_mapping({"x": -1.0}), label="cold")
    >>> [n.row_id for n in nn.neighbors(Datum.from_mapping({"x": 0.9}), k=1)]
    ['r1']
    """

    def __init__(self, window: int = 512, metric: str = "euclidean") -> None:
        require_positive(window, "window")
        distance = _METRICS.get(metric)
        if distance is None:
            raise ModelError(
                f"unknown metric {metric!r}; choose from {sorted(_METRICS)}"
            )
        self.metric = metric
        self._distance = distance
        self._order: deque[str] = deque(maxlen=window)
        self._rows: dict[str, tuple[dict[str, float], str | None]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def set_row(self, row_id: str, datum: Datum, label: str | None = None) -> None:
        """Insert or update a row; oldest rows fall out of the window."""
        if row_id not in self._rows:
            order = self._order
            if len(order) == order.maxlen:
                self._rows.pop(order[0], None)
            order.append(row_id)
        self._rows[row_id] = (dict(datum.num_values), label)

    def neighbors(self, datum: Datum, k: int = 5) -> list[Neighbor]:
        """The ``k`` nearest stored rows (closest first; stable ties)."""
        require_positive(k, "k")
        point = datum.num_values
        scored = sorted(
            (
                (self._distance(point, values), row_id)
                for row_id, (values, _label) in self._rows.items()
            ),
            key=lambda pair: (pair[0], pair[1]),
        )
        return [
            Neighbor(
                row_id=row_id,
                distance=distance,
                label=self._rows[row_id][1],
                values=dict(self._rows[row_id][0]),
            )
            for distance, row_id in scored[:k]
        ]

    def classify(self, datum: Datum, k: int = 5) -> tuple[str, dict[str, int]]:
        """Majority label among the k nearest labelled rows.

        Returns ``(label, votes)``; raises ModelError when no labelled
        rows exist. Ties break towards the nearer neighbour's label.
        """
        hits = [n for n in self.neighbors(datum, k=k) if n.label is not None]
        if not hits:
            raise ModelError("classify() with no labelled rows in the window")
        votes = Counter(n.label for n in hits)
        top_count = max(votes.values())
        # Nearest neighbour among the tied labels decides.
        for neighbor in hits:
            if votes[neighbor.label] == top_count:
                return neighbor.label, dict(votes)
        raise AssertionError("unreachable")  # pragma: no cover

    def to_state(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "window": self._order.maxlen,
            "rows": [
                [row_id, self._rows[row_id][0], self._rows[row_id][1]]
                for row_id in self._order
            ],
        }

    def load_state(self, state: dict[str, Any]) -> None:
        self._order.clear()
        self._rows.clear()
        for row_id, values, label in state["rows"]:
            self._order.append(row_id)
            self._rows[row_id] = (
                {str(k): float(v) for k, v in values.items()},
                label,
            )
