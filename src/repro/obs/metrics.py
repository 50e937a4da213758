"""Metrics registry: counters, gauges and histograms over ``util.stats``.

Instruments are identified by a name plus sorted ``key=value`` labels
(``operator.latency_s{node=module-e,operator=train}``), so per-node and
per-component series coexist in one registry. Registration is
get-or-create and therefore idempotent — a component re-created after a
node restart re-attaches to the same series.

The registry itself never touches the clock; an
:class:`~repro.obs.state.ObsState` scrapes :meth:`MetricsRegistry.snapshot`
at sim-time intervals into the shared :class:`~repro.sim.trace.Tracer`, so
metric samples are ordinary trace records and inherit the trace layer's
determinism and JSONL round-trip.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable

from repro.util.stats import RunningStats, percentiles

__all__ = [
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "metric_key",
    "parse_metric_key",
]

#: Characters that would make a label value ambiguous inside the
#: ``name{k=v,...}`` syntax, escaped with a backslash on the way in.
_ESCAPED = ("\\", ",", "=", "{", "}")


def _escape(value: str) -> str:
    for ch in _ESCAPED:
        value = value.replace(ch, "\\" + ch)
    return value


def metric_key(name: str, labels: dict[str, str]) -> str:
    """Fully-qualified series name: ``name{k1=v1,k2=v2}`` (labels sorted).

    Label keys and values containing ``,``, ``=``, ``{``, ``}`` or ``\\``
    are backslash-escaped so every series key parses back unambiguously
    with :func:`parse_metric_key` (round-trip guaranteed).
    """
    if not labels:
        return name
    inner = ",".join(f"{_escape(k)}={_escape(str(labels[k]))}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`metric_key`: ``name{k=v,...}`` -> (name, labels).

    The profiler's exports group sampled series per node by parsing the
    keys back, so this must round-trip exactly — including escaped
    separator characters inside label values.

    >>> parse_metric_key(metric_key("m", {"node": "a,b=c}"}))
    ('m', {'node': 'a,b=c}'})
    """
    if not key.endswith("}"):
        return key, {}
    brace = key.find("{")
    if brace < 0:
        return key, {}
    name = key[:brace]
    inner = key[brace + 1 : -1]
    if not inner:
        return name, {}
    labels: dict[str, str] = {}
    label_key: str | None = None
    part: list[str] = []
    i = 0
    while i < len(inner):
        ch = inner[i]
        if ch == "\\" and i + 1 < len(inner):
            part.append(inner[i + 1])
            i += 2
            continue
        if ch == "=" and label_key is None:
            label_key = "".join(part)
            part = []
        elif ch == ",":
            if label_key is None:
                raise ValueError(f"malformed metric key {key!r}: label without '='")
            labels[label_key] = "".join(part)
            label_key = None
            part = []
        else:
            part.append(ch)
        i += 1
    if label_key is None:
        raise ValueError(f"malformed metric key {key!r}: label without '='")
    labels[label_key] = "".join(part)
    return name, labels


class Counter:
    """Monotone event counter."""

    __slots__ = ("key", "value")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Point-in-time value: either set directly or computed by a callback."""

    __slots__ = ("key", "_value", "fn")

    def __init__(self, key: str, fn: Callable[[], float] | None = None) -> None:
        self.key = key
        self.fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def read(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self._value


class HistogramMetric:
    """Streaming distribution (Welford) plus bounded quantile samples.

    Welford statistics (count/mean/min/max) are exact. Quantiles come
    from a deterministic strided sample buffer: every ``_stride``-th
    observation is kept, and when the buffer exceeds its cap it is
    decimated 2:1 and the stride doubled — memory stays bounded on a
    constrained device, the retained subsequence is a pure function of
    the observation sequence (no RNG), and for the short experiment runs
    here the buffer never fills, so quantiles are exact in practice.
    """

    __slots__ = ("key", "stats", "_samples", "_stride", "_seen")

    #: Sample buffer cap before 2:1 decimation kicks in.
    MAX_SAMPLES = 8192

    def __init__(self, key: str) -> None:
        self.key = key
        self.stats = RunningStats()
        self._samples: list[float] = []
        self._stride = 1
        self._seen = 0

    def observe(self, value: float) -> None:
        self.stats.add(value)
        self._seen += 1
        if self._seen % self._stride:
            return
        self._samples.append(value)
        if len(self._samples) > self.MAX_SAMPLES:
            self._samples = self._samples[1::2]
            self._stride *= 2

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile of the (possibly decimated) samples."""
        return self.quantiles(q)[0]

    def quantiles(self, *qs: float) -> list[float]:
        """Several percentiles from one sort of the sample buffer."""
        return percentiles(self._samples, qs)


class MetricsRegistry:
    """Get-or-create home for every instrument in one runtime.

    Series admission is bounded: once ``max_series`` distinct keys
    exist, new keys stop being stored (the same admission-stop shape as
    the wire-codec topic caches — existing series keep working, a label
    explosion cannot grow memory without bound). Callers still get a
    working instrument back, it is just unregistered; the registry
    counts every such drop and surfaces the total in
    :meth:`snapshot` so scrapes make the overflow visible, and the SLO
    engine raises an ``SLO320`` finding from it.
    """

    #: Default admission cap on distinct series across all instrument kinds.
    DEFAULT_MAX_SERIES = 2048

    def __init__(self, max_series: int | None = DEFAULT_MAX_SERIES) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, HistogramMetric] = {}
        self.max_series = max_series
        self.dropped_series = 0
        self.first_dropped_key: str | None = None

    # ------------------------------------------------------------------
    # Instrument factories (idempotent by fully-qualified name)
    # ------------------------------------------------------------------

    def _admit(self, key: str) -> bool:
        """Admission-stop: may a *new* series named ``key`` be stored?"""
        if self.max_series is None or len(self) < self.max_series:
            return True
        self.dropped_series += 1
        if self.first_dropped_key is None:
            self.first_dropped_key = key
            warnings.warn(
                f"metric cardinality cap reached ({self.max_series} series); "
                f"new series starting with {key!r} are not registered",
                RuntimeWarning,
                stacklevel=3,
            )
        return False

    def counter(self, name: str, **labels: str) -> Counter:
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = Counter(key)
            if self._admit(key):
                self._counters[key] = instrument
        return instrument

    def gauge(
        self, name: str, fn: Callable[[], float] | None = None, **labels: str
    ) -> Gauge:
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = Gauge(key, fn)
            if self._admit(key):
                self._gauges[key] = instrument
        elif fn is not None:
            instrument.fn = fn  # re-bind after a node restart
        return instrument

    def histogram(self, name: str, **labels: str) -> HistogramMetric:
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = HistogramMetric(key)
            if self._admit(key):
                self._histograms[key] = instrument
        return instrument

    def instruments(self) -> list[tuple[str, str, Any]]:
        """Every stored instrument as ``(kind, key, instrument)``, sorted.

        The telemetry exporters (:mod:`repro.obs.export`) need the typed
        instruments, not the flattened :meth:`snapshot` values.
        """
        out: list[tuple[str, str, Any]] = []
        for key in sorted(self._counters):
            out.append(("counter", key, self._counters[key]))
        for key in sorted(self._gauges):
            out.append(("gauge", key, self._gauges[key]))
        for key in sorted(self._histograms):
            out.append(("histogram", key, self._histograms[key]))
        return out

    # ------------------------------------------------------------------
    # Scraping
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """One flat, sorted ``series -> value`` mapping.

        Counters report their count, gauges their current read (callback
        errors surface as the value staying at the last good read — a
        dead gauge must not kill the scraper), histograms a dict of
        count/mean/min/max plus p50/p95/p99 quantiles.
        """
        out: dict[str, Any] = {}
        for key in sorted(self._counters):
            out[key] = self._counters[key].value
        for key in sorted(self._gauges):
            try:
                out[key] = round(self._gauges[key].read(), 9)
            except Exception:  # noqa: BLE001 - scrape isolation
                continue
        for key in sorted(self._histograms):
            histogram = self._histograms[key]
            stats = histogram.stats
            if stats.count == 0:
                out[key] = {"count": 0}
            else:
                p50, p95, p99 = histogram.quantiles(50, 95, 99)
                out[key] = {
                    "count": stats.count,
                    "mean": round(stats.mean, 9),
                    "min": round(stats.minimum, 9),
                    "max": round(stats.maximum, 9),
                    "p50": round(p50, 9),
                    "p95": round(p95, 9),
                    "p99": round(p99, 9),
                }
        if self.dropped_series:
            out["obs.meta.dropped_series"] = self.dropped_series
        return out

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
