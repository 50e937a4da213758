"""Streaming statistics used by the benchmark harness and the middleware.

``RunningStats`` implements Welford's numerically stable online mean/variance.
``LatencyRecorder`` is the one sample store behind every quantile: the
harness's Tables II and III columns, the stage breakdown, and the metrics
registry's histograms. Its Welford statistics are always exact; its
percentiles are exact until the store passes its ``cap`` (unbounded by
default), after which it decimates deterministically so memory stays bounded.
"""

from __future__ import annotations

import math

__all__ = ["RunningStats", "LatencyRecorder", "percentile", "percentiles"]


def percentiles(samples: list[float], qs: tuple[float, ...]) -> list[float]:
    """The ``qs``-th percentiles of ``samples``, sorting them once.

    Each ``q`` is in [0, 100], linearly interpolated; the samples may be
    in any order; NaN for an empty list. The one quantile routine behind
    :class:`LatencyRecorder`, which is also the metrics layer's histogram.
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

    ``stats`` (count/mean/min/max/stddev) is exact. Percentiles come from
    the stored samples: every one of them while the store is below
    ``cap``; past it, the store is decimated 2:1 and from then on only
    every ``stride``-th sample is kept, the stride doubling at each
    decimation. The retained subsequence is a pure function of the sample
    sequence (no RNG), so a bounded recorder's quantiles are as
    replayable as an exact one's, and bit-identical to them below the
    cap. All values are in the unit the caller uses (the harness uses
    milliseconds to match the paper's tables).
    """

    __slots__ = ("name", "cap", "stats", "_samples", "_stride")

    def __init__(self, name: str = "", cap: float = math.inf) -> None:
        self.name = name
        self.cap = cap
        self.stats = RunningStats()
        self._samples: list[float] = []
        self._stride = 1

    def add(self, value: float) -> None:
        """Record one latency sample."""
        stats = self.stats
        stats.add(value)
        if stats.count % self._stride:
            return
        samples = self._samples
        samples.append(value)
        if len(samples) > self.cap:
            self._samples = samples[1::2]
            self._stride *= 2

    def extend(self, values: list[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def average(self) -> float:
        return self.stats.mean

    @property
    def maximum(self) -> float:
        return self.stats.maximum

    @property
    def minimum(self) -> float:
        return self.stats.minimum

    @property
    def stddev(self) -> float:
        return self.stats.stddev

    @property
    def samples(self) -> list[float]:
        """A copy of the stored samples in arrival order."""
        return list(self._samples)

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile (0 <= q <= 100, linear interp)."""
        return percentile(self._samples, q)

    def percentiles(self, *qs: float) -> list[float]:
        """Several percentiles from one sort of the stored samples."""
        return percentiles(self._samples, qs)

    def summary(self) -> dict[str, float]:
        """Summary dict with the columns used across EXPERIMENTS.md."""
        p50, p95, p99 = self.percentiles(50, 95, 99)
        return {
            "count": float(self.count),
            "avg": self.average,
            "max": self.maximum,
            "min": self.minimum,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }
