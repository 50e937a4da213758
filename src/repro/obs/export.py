"""Operator-facing telemetry export: Prometheus text, OTLP JSON, HTTP.

The sim side records metric scrapes into the trace; a *real* deployment
needs a scrape surface instead. This module renders one
:class:`~repro.obs.metrics.MetricsRegistry` into the two lingua-franca
formats — the Prometheus text exposition format and an OTLP-style JSON
document — and serves both (plus the SLO engine's report and a
``top``-style plain-text console) over a minimal asyncio HTTP endpoint
attached to an :class:`~repro.runtime.real.AsyncioRuntime`.

The renderers are pure functions of the registry, so they are also used
verbatim on simulated runs (``repro slo`` reports) and in tests without
any network in between.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import MetricsRegistry, parse_metric_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.real import AsyncioRuntime

__all__ = [
    "prometheus_text",
    "otlp_json",
    "render_top",
    "MetricsServer",
]

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: Histogram quantiles exported as Prometheus/OTLP summaries.
_QUANTILES = (50, 95, 99)
_ZEROS = (0.0,) * len(_QUANTILES)  # an empty histogram exports zeros, not NaN


def _prom_name(name: str) -> str:
    """Metric name with every illegal character folded to ``_``."""
    return _NAME_SANITIZE.sub("_", name)


def _prom_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: dict[str, str], extra: str = "") -> str:
    parts = [
        f'{_prom_name(k)}="{_prom_label_value(labels[k])}"' for k in sorted(labels)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format (v0.0.4)."""
    lines: list[str] = []
    typed: set[str] = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for kind, key, instrument in registry.instruments():
        raw_name, labels = parse_metric_key(key)
        name = _prom_name(raw_name)
        if kind == "counter":
            declare(f"{name}_total", "counter")
            lines.append(f"{name}_total{_prom_labels(labels)} {instrument.value}")
        elif kind == "gauge":
            try:
                value = instrument.read()
            except Exception:  # noqa: BLE001 - scrape isolation, like snapshot()
                continue
            declare(name, "gauge")
            lines.append(f"{name}{_prom_labels(labels)} {value!r}")
        else:  # histogram -> summary
            declare(name, "summary")
            stats = instrument.stats
            values = instrument.percentiles(*_QUANTILES) if stats.count else _ZEROS
            for q, value in zip(_QUANTILES, values):
                quantile_label = f'quantile="{q / 100}"'
                lines.append(
                    f"{name}{_prom_labels(labels, quantile_label)} {value!r}"
                )
            total = stats.mean * stats.count if stats.count else 0.0
            lines.append(f"{name}_sum{_prom_labels(labels)} {total!r}")
            lines.append(f"{name}_count{_prom_labels(labels)} {stats.count}")
    if registry.dropped_series:
        declare("obs_meta_dropped_series_total", "counter")
        lines.append(f"obs_meta_dropped_series_total {registry.dropped_series}")
    return "\n".join(lines) + "\n"


def _otlp_attributes(labels: dict[str, str]) -> list[dict[str, Any]]:
    return [
        {"key": k, "value": {"stringValue": labels[k]}} for k in sorted(labels)
    ]


def otlp_json(
    registry: MetricsRegistry, service_name: str = "repro"
) -> dict[str, Any]:
    """OTLP-style JSON: resourceMetrics → scopeMetrics → metrics.

    Counters become monotonic cumulative sums, gauges gauges, histograms
    summaries with the same quantiles the sim scraper records. The shape
    follows OTLP/JSON conventions closely enough for collectors that
    speak it, without claiming byte-level protobuf-JSON conformance.
    """
    metrics: list[dict[str, Any]] = []
    for kind, key, instrument in registry.instruments():
        name, labels = parse_metric_key(key)
        attributes = _otlp_attributes(labels)
        if kind == "counter":
            metrics.append(
                {
                    "name": name,
                    "sum": {
                        "dataPoints": [
                            {"asDouble": float(instrument.value), "attributes": attributes}
                        ],
                        "aggregationTemporality": 2,
                        "isMonotonic": True,
                    },
                }
            )
        elif kind == "gauge":
            try:
                value = float(instrument.read())
            except Exception:  # noqa: BLE001 - scrape isolation
                continue
            metrics.append(
                {
                    "name": name,
                    "gauge": {
                        "dataPoints": [{"asDouble": value, "attributes": attributes}]
                    },
                }
            )
        else:
            stats = instrument.stats
            values = instrument.percentiles(*_QUANTILES) if stats.count else _ZEROS
            metrics.append(
                {
                    "name": name,
                    "summary": {
                        "dataPoints": [
                            {
                                "attributes": attributes,
                                "count": stats.count,
                                "sum": stats.mean * stats.count if stats.count else 0.0,
                                "quantileValues": [
                                    {"quantile": q / 100, "value": value}
                                    for q, value in zip(_QUANTILES, values)
                                ],
                            }
                        ]
                    },
                }
            )
    return {
        "resourceMetrics": [
            {
                "resource": {
                    "attributes": [
                        {
                            "key": "service.name",
                            "value": {"stringValue": service_name},
                        }
                    ]
                },
                "scopeMetrics": [
                    {"scope": {"name": "repro.obs"}, "metrics": metrics}
                ],
            }
        ]
    }


def render_top(
    registry: MetricsRegistry | None,
    engine: Any | None = None,
    now: float | None = None,
) -> str:
    """The ``repro top`` console: nodes, hot series, SLO flow states."""
    lines: list[str] = []
    if now is not None:
        lines.append(f"t={now:.3f}s")
    if engine is not None:
        lines.append("flows:")
        status = engine.status_snapshot(now)
        for flow_id, entry in status["flows"].items():
            lines.append(
                f"  {flow_id:<20} {entry['state']:>5}  "
                f"burn {entry['burn_short']:>8.2f}/{entry['burn_long']:<8.2f} "
                f"good {entry['good']:>6}  viol {entry['violations']:>4} "
                f"p95 {entry['p95_ms']:>9.3f} ms"
            )
        if status["nodes"]:
            lines.append("node watermarks:")
            for node, mark in status["nodes"].items():
                lines.append(
                    f"  {node:<20} cpu {mark['cpu_util']:>7.1%}  "
                    f"queue {mark['queue_depth']:>5.0f}"
                )
    if registry is not None:
        lines.append("series:")
        for series, value in registry.snapshot().items():
            if isinstance(value, dict):
                count = value.get("count", 0)
                p95 = value.get("p95", 0.0)
                lines.append(f"  {series:<44} n={count} p95={p95}")
            else:
                lines.append(f"  {series:<44} {value}")
    return "\n".join(lines) + "\n"


class MetricsServer:
    """Minimal HTTP scrape endpoint over an :class:`AsyncioRuntime` loop.

    Routes:

    * ``GET /metrics`` — Prometheus text format;
    * ``GET /metrics.json`` — OTLP-style JSON;
    * ``GET /slo.json`` — the SLO engine's full report (``{}`` without one);
    * ``GET /top`` — plain-text console body (what ``repro top`` polls);
    * ``GET /healthz`` — liveness.

    The listening socket binds synchronously at :meth:`start` (the
    runtime's loop is idle between ``run_for`` calls), so tests can read
    the ephemeral port before serving begins; requests are answered
    while the loop runs.
    """

    def __init__(
        self,
        runtime: "AsyncioRuntime",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.runtime = runtime
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "MetricsServer":
        loop = self.runtime.loop
        self._server = loop.run_until_complete(
            asyncio.start_server(self._handle, self.host, self.port)
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        loop = self.runtime.loop
        if not loop.is_closed():
            loop.run_until_complete(self._server.wait_closed())
        self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def _registry(self) -> MetricsRegistry:
        obs = self.runtime.obs
        if obs is not None and obs.metrics is not None:
            return obs.metrics
        return MetricsRegistry()

    def _respond(self, path: str) -> tuple[int, str, str]:
        if path == "/metrics":
            return 200, "text/plain; version=0.0.4", prometheus_text(self._registry())
        if path == "/metrics.json":
            return 200, "application/json", json.dumps(otlp_json(self._registry()))
        if path == "/slo.json":
            engine = self.runtime.slo
            report = engine.report() if engine is not None else {}
            return 200, "application/json", json.dumps(report)
        if path == "/top":
            return 200, "text/plain", render_top(
                self._registry(), self.runtime.slo, now=self.runtime.now
            )
        if path == "/healthz":
            return 200, "text/plain", "ok\n"
        return 404, "text/plain", f"unknown path {path}\n"

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await reader.readline()
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request.split()
            path = parts[1].decode("ascii", "replace") if len(parts) >= 2 else "/"
            status, content_type, body = self._respond(path)
            payload = body.encode("utf-8")
            reason = "OK" if status == 200 else "Not Found"
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("ascii") + payload)
            await writer.drain()
        finally:
            writer.close()
