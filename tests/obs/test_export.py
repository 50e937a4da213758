"""Telemetry export: Prometheus text, top console, HTTP server."""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.obs.export import (
    MetricsServer,
    prometheus_text,
    render_top,
)
from repro.obs.metrics import MetricsRegistry


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("events.total", node="n1").inc(3)
    registry.gauge("queue.depth", node="n1").set(7)
    hist = registry.histogram("op.latency_s", op="train")
    for v in (0.010, 0.020, 0.030):
        hist.add(v)
    return registry


# ----------------------------------------------------------------------
# Renderers (pure functions of the registry)
# ----------------------------------------------------------------------


def test_prometheus_text_format():
    text = prometheus_text(_sample_registry())
    assert "# TYPE events_total_total counter" in text
    assert 'events_total_total{node="n1"} 3' in text
    assert "# TYPE queue_depth gauge" in text
    assert 'queue_depth{node="n1"} 7.0' in text
    # Histograms export as summaries: quantiles + _sum/_count.
    assert "# TYPE op_latency_s summary" in text
    assert 'op_latency_s{op="train",quantile="0.5"} 0.02' in text
    assert 'op_latency_s_count{op="train"} 3' in text
    assert text.endswith("\n")


def test_prometheus_text_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter("c", path='a"b\\c').inc()
    text = prometheus_text(registry)
    assert 'path="a\\"b\\\\c"' in text


def test_prometheus_text_surfaces_dropped_series():
    registry = MetricsRegistry(max_series=1)
    registry.counter("a").inc()
    with pytest.warns(RuntimeWarning):
        registry.counter("b").inc()
    text = prometheus_text(registry)
    assert "obs_meta_dropped_series_total 1" in text


def test_prometheus_text_isolates_broken_gauges():
    registry = MetricsRegistry()

    def boom() -> float:
        raise RuntimeError("dead node")

    registry.gauge("bad", fn=boom)
    registry.counter("good").inc()
    text = prometheus_text(registry)
    assert "good_total 1" in text
    assert "bad" not in text


def test_render_top_lists_series():
    body = render_top(_sample_registry(), engine=None, now=12.5)
    assert body.startswith("t=12.500s")
    assert "events.total{node=n1}" in body
    assert "series:" in body


def test_render_top_includes_engine_flows():
    from repro.obs.slo import FlowSlo, SloEngine
    from repro.runtime.sim import SimRuntime

    runtime = SimRuntime(seed=0)
    engine = SloEngine(
        runtime,
        [FlowSlo(flow="train", deadline_s=1.0)],
        status_interval_s=0.0,
    )
    body = render_top(None, engine=engine, now=0.0)
    assert "flows:" in body
    assert "train" in body


# ----------------------------------------------------------------------
# The HTTP scrape surface on the real backend
# ----------------------------------------------------------------------


def _fetch(url: str, out: dict, key: str) -> None:
    with urllib.request.urlopen(url, timeout=10) as response:
        out[key] = response.read().decode("utf-8")


@pytest.mark.slow
def test_metrics_server_serves_all_routes():
    from repro.obs import enable_observability
    from repro.runtime.real import AsyncioRuntime

    runtime = AsyncioRuntime()
    try:
        obs = enable_observability(runtime, scrape_interval_s=0)
        obs.metrics.counter("events").inc(9)
        server = runtime.serve_metrics()
        assert isinstance(server, MetricsServer)
        assert runtime.serve_metrics() is server  # idempotent
        assert server.port != 0

        out: dict[str, str] = {}
        paths = ("/metrics", "/slo.json", "/top", "/healthz", "/nope")
        threads = [
            threading.Thread(target=_fetch, args=(server.url + p, out, p))
            for p in paths[:-1]
        ]
        for thread in threads:
            thread.start()
        # Serve the queued requests on the runtime's loop.
        runtime.run_for(1.0)
        for thread in threads:
            thread.join(timeout=10)

        assert "events_total 9" in out["/metrics"]
        assert json.loads(out["/slo.json"]) == {}  # no engine installed
        assert "series:" in out["/top"]
        assert out["/healthz"] == "ok\n"
    finally:
        runtime.close()


@pytest.mark.slow
def test_metrics_server_unknown_path_is_404():
    from repro.runtime.real import AsyncioRuntime

    runtime = AsyncioRuntime()
    try:
        server = runtime.serve_metrics()
        status: dict[str, int] = {}

        def fetch_status() -> None:
            try:
                urllib.request.urlopen(server.url + "/nope", timeout=10)
                status["code"] = 200
            except urllib.error.HTTPError as exc:
                status["code"] = exc.code

        thread = threading.Thread(target=fetch_status)
        thread.start()
        runtime.run_for(1.0)
        thread.join(timeout=10)
        assert status["code"] == 404
    finally:
        runtime.close()
