"""Mergeable, fixed-memory latency quantile sketches.

The online SLO engine (:mod:`repro.obs.slo`) needs per-flow latency
quantiles *while the scenario runs*, over both the whole run and a
sliding window, without unbounded memory. :class:`LatencySketch` is a
DDSketch-style log-bucketed sketch: values land in geometrically sized
buckets ``(gamma**(i-1), gamma**i]`` with ``gamma = (1+alpha)/(1-alpha)``,
so any reported quantile is within relative error ``alpha`` of the true
sample at that rank (while the bucket cap is not exceeded). Buckets are
plain integer counts, which makes two sketches built from disjoint
sample sets merge *exactly*: ``sketch(A).merge(sketch(B))`` equals
``sketch(A + B)`` bucket-for-bucket below the collapse cap.

:class:`WindowedSketch` slices time into fixed-width sub-windows, one
:class:`LatencySketch` each, and answers queries by merging the live
slices — a sliding-window quantile in O(window / slice) sketches of
fixed size.

Everything here is deterministic: no RNG, no wall-clock, and iteration
over buckets is always in sorted index order.
"""

from __future__ import annotations

import math

__all__ = ["LatencySketch", "WindowedSketch"]

#: Values at or below this are counted in the zero bucket (latencies are
#: non-negative; true zeros occur for same-instant hops).
_ZERO_EPSILON = 1e-12


class LatencySketch:
    """DDSketch-style quantile sketch with relative-error guarantee.

    ``alpha`` is the relative accuracy: ``quantile(q)`` returns a value
    within ``alpha * v`` of the true sample ``v`` at that rank, as long
    as the number of distinct log-buckets stays under ``max_buckets``.
    When it does not, the lowest buckets collapse into one (the usual
    DDSketch trade: the far-left tail loses resolution first, the upper
    quantiles the operator cares about keep theirs).
    """

    __slots__ = (
        "alpha",
        "max_buckets",
        "_gamma",
        "_log_gamma",
        "buckets",
        "zero_count",
        "count",
        "total",
        "minimum",
        "maximum",
    )

    def __init__(self, alpha: float = 0.01, max_buckets: int = 512) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if max_buckets < 2:
            raise ValueError(f"max_buckets must be >= 2, got {max_buckets}")
        self.alpha = alpha
        self.max_buckets = max_buckets
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self.buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one non-negative observation into the sketch."""
        if value < 0.0:
            raise ValueError(f"latency sketch takes non-negative values, got {value}")
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value <= _ZERO_EPSILON:
            self.zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        if len(self.buckets) > self.max_buckets:
            self._collapse()

    def _collapse(self) -> None:
        """Merge the lowest bucket into the next one up (tail loses first)."""
        low, second = sorted(self.buckets)[:2]
        self.buckets[second] += self.buckets.pop(low)

    def merge(self, other: "LatencySketch") -> "LatencySketch":
        """Fold ``other`` into this sketch (exact below the bucket cap)."""
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with different accuracy: "
                f"{self.alpha} vs {other.alpha}"
            )
        for index in sorted(other.buckets):
            self.buckets[index] = self.buckets.get(index, 0) + other.buckets[index]
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        while len(self.buckets) > self.max_buckets:
            self._collapse()
        return self

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (``q`` in [0, 100], like ``util.stats``)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = int(q * (self.count - 1) / 100.0)
        if rank < self.zero_count:
            return 0.0
        seen = self.zero_count
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if rank < seen:
                # Midpoint of (gamma**(i-1), gamma**i]: within alpha of
                # every value the bucket can hold.
                return 2.0 * self._gamma**index / (self._gamma + 1.0)
        return self.maximum  # pragma: no cover - counts always sum to count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencySketch(alpha={self.alpha}, count={self.count}, "
            f"buckets={len(self.buckets)})"
        )


class WindowedSketch:
    """Sliding-window quantiles from a ring of per-slice sketches.

    Time is cut into ``slice_s``-wide slices; each observation lands in
    its slice's :class:`LatencySketch`. ``query(now)`` merges the slices
    covering the last ``slices * slice_s`` seconds. Old slices are
    evicted on every observe *and* query, so memory is bounded by
    ``slices`` fixed-size sketches regardless of run length.
    """

    __slots__ = ("alpha", "max_buckets", "slice_s", "slices", "_ring")

    def __init__(
        self,
        alpha: float = 0.01,
        slice_s: float = 5.0,
        slices: int = 6,
        max_buckets: int = 512,
    ) -> None:
        if slice_s <= 0:
            raise ValueError(f"slice_s must be positive, got {slice_s}")
        if slices < 1:
            raise ValueError(f"slices must be >= 1, got {slices}")
        self.alpha = alpha
        self.max_buckets = max_buckets
        self.slice_s = slice_s
        self.slices = slices
        self._ring: dict[int, LatencySketch] = {}

    def _slice_of(self, t: float) -> int:
        return int(t // self.slice_s)

    def _evict(self, current: int) -> None:
        horizon = current - self.slices
        for key in [k for k in self._ring if k <= horizon]:
            del self._ring[key]

    def observe(self, t: float, value: float) -> None:
        current = self._slice_of(t)
        sketch = self._ring.get(current)
        if sketch is None:
            sketch = self._ring[current] = LatencySketch(
                alpha=self.alpha, max_buckets=self.max_buckets
            )
            self._evict(current)
        sketch.add(value)

    def query(self, now: float) -> LatencySketch:
        """Merged sketch over the window ending at ``now`` (fresh object)."""
        current = self._slice_of(now)
        self._evict(current)
        merged = LatencySketch(alpha=self.alpha, max_buckets=self.max_buckets)
        for key in sorted(self._ring):
            merged.merge(self._ring[key])
        return merged

    def __len__(self) -> int:
        return len(self._ring)
