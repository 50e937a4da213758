"""Streaming statistics used by the benchmark harness and the middleware.

``RunningStats`` implements Welford's numerically stable online mean/variance.
``LatencyRecorder`` keeps the raw samples (experiments are small enough) and
reports the average/max columns used in the paper's Tables II and III, plus
percentiles for the supplementary benches. ``Histogram`` buckets samples for
compact textual display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["RunningStats", "LatencyRecorder", "Histogram", "percentile", "percentiles"]


def percentiles(samples: list[float], qs: tuple[float, ...]) -> list[float]:
    """The ``qs``-th percentiles of ``samples``, sorting them once.

    Each ``q`` is in [0, 100], linearly interpolated; the samples may be
    in any order; NaN for an empty list. The one quantile routine behind
    :class:`LatencyRecorder` and the metrics layer's histograms.
    """
    if not samples:
        return [math.nan] * len(qs)
    ordered = sorted(samples)
    last = len(ordered) - 1
    out = []
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        rank = (q / 100.0) * last
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            out.append(ordered[low])
        else:
            # This form (rather than a*(1-f) + b*f) cannot exceed [a, b] under
            # floating-point rounding, keeping percentiles within min..max.
            out.append(ordered[low] + (rank - low) * (ordered[high] - ordered[low]))
    return out


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile of ``samples`` (see :func:`percentiles`)."""
    return percentiles(samples, (q,))[0]


class RunningStats:
    """Welford online mean / variance / min / max.

    >>> s = RunningStats()
    >>> for x in (1.0, 2.0, 3.0):
    ...     s.add(x)
    >>> s.mean
    2.0
    """

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the statistics."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "RunningStats") -> None:
        """Fold another ``RunningStats`` into this one (parallel Welford)."""
        if other._count == 0:
            return
        if self._count == 0:
            self._count = other._count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            return
        total = self._count + other._count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self._count * other._count / total
        self._mean += delta * other._count / total
        self._count = total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean if self._count else math.nan

    @property
    def variance(self) -> float:
        """Population variance."""
        return self._m2 / self._count if self._count else math.nan

    @property
    def stddev(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan  # NaN check

    @property
    def minimum(self) -> float:
        return self._min if self._count else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._count else math.nan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunningStats(count={self._count}, mean={self.mean:.4g}, "
            f"std={self.stddev:.4g}, min={self.minimum:.4g}, max={self.maximum:.4g})"
        )


class LatencyRecorder:
    """Collects latency samples and reports paper-style summary rows.

    Samples are stored raw so exact percentiles can be computed. All values
    are in the unit the caller uses (the harness uses milliseconds to match
    the paper's tables).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: list[float] = []
        self._stats = RunningStats()

    def add(self, value: float) -> None:
        """Record one latency sample."""
        self._samples.append(value)
        self._stats.add(value)

    def extend(self, values: list[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return self._stats.count

    @property
    def average(self) -> float:
        return self._stats.mean

    @property
    def maximum(self) -> float:
        return self._stats.maximum

    @property
    def minimum(self) -> float:
        return self._stats.minimum

    @property
    def stddev(self) -> float:
        return self._stats.stddev

    @property
    def samples(self) -> list[float]:
        """A copy of the raw samples in arrival order."""
        return list(self._samples)

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile (0 <= q <= 100, linear interp)."""
        return percentile(self._samples, q)

    def summary(self) -> dict[str, float]:
        """Summary dict with the columns used across EXPERIMENTS.md."""
        p50, p95, p99 = percentiles(self._samples, (50, 95, 99))
        return {
            "count": float(self.count),
            "avg": self.average,
            "max": self.maximum,
            "min": self.minimum,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }


@dataclass
class Histogram:
    """Fixed-width histogram for compact textual reporting.

    >>> h = Histogram(lower=0.0, upper=10.0, bins=5)
    >>> h.add(1.0); h.add(9.5); h.add(42.0)
    >>> h.counts
    [1, 0, 0, 0, 1]
    >>> h.overflow
    1
    """

    lower: float
    upper: float
    bins: int
    counts: list[int] = field(default_factory=list)
    underflow: int = 0
    overflow: int = 0

    def __post_init__(self) -> None:
        if self.bins <= 0:
            raise ValueError("bins must be positive")
        if self.upper <= self.lower:
            raise ValueError("upper must exceed lower")
        if not self.counts:
            self.counts = [0] * self.bins

    def add(self, value: float) -> None:
        if value < self.lower:
            self.underflow += 1
            return
        if value >= self.upper:
            self.overflow += 1
            return
        width = (self.upper - self.lower) / self.bins
        index = int((value - self.lower) / width)
        self.counts[min(index, self.bins - 1)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def render(self, width: int = 40) -> str:
        """Render an ASCII bar chart, one line per bin."""
        peak = max(self.counts) if any(self.counts) else 1
        step = (self.upper - self.lower) / self.bins
        lines = []
        for i, count in enumerate(self.counts):
            lo = self.lower + i * step
            bar = "#" * int(round(width * count / peak))
            lines.append(f"[{lo:10.3f}, {lo + step:10.3f}) {count:6d} {bar}")
        return "\n".join(lines)
