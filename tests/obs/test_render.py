"""Snapshot rendering: format_seconds, tables, the top dashboard."""

from repro.obs import (MetricsRegistry, format_seconds, render_metrics,
                       render_top, snapshot_quantile)


class TestFormatSeconds:
    def test_scales(self):
        assert format_seconds(0) == "0"
        assert format_seconds(870e-6) == "870us"
        assert format_seconds(0.0124) == "12.40ms"
        assert format_seconds(1.732) == "1.73s"


class TestSnapshotQuantile:
    def test_matches_live_histogram_quantile(self):
        registry = MetricsRegistry()
        hist = registry.histogram("x")
        for value in (0.002, 0.002, 0.002, 0.2):
            hist.observe(value)
        snap = registry.snapshot()["histograms"]["x"]
        assert snapshot_quantile(snap, 0.5) == hist.quantile(0.5)
        assert snapshot_quantile(snap, 0.99) == hist.quantile(0.99)
        assert snapshot_quantile({"count": 0}, 0.5) == 0.0


class TestRenderMetrics:
    def test_empty_snapshot(self):
        assert render_metrics({}) == ["(no metrics recorded)"]

    def test_tables_cover_every_metric_kind(self):
        registry = MetricsRegistry()
        registry.counter("pipeline.pairs").inc(80)
        registry.gauge("serve.queue_depth").set(4)
        registry.histogram("pipeline.seed_query_s").observe(0.003)
        text = "\n".join(render_metrics(registry.snapshot()))
        assert "Counters" in text and "pipeline.pairs" in text
        assert "80" in text
        assert "Gauges" in text and "serve.queue_depth" in text
        assert "Latency histograms" in text
        assert "pipeline.seed_query_s" in text
        assert "p99" in text


class TestRenderTop:
    def _reply(self):
        registry = MetricsRegistry()
        registry.histogram("engine.genpair.run_s").observe(0.37)
        registry.histogram("serve.request_s.map").observe(0.4)
        return {
            "server": {"uptime_s": 12.5, "requests": 3, "errors": 0,
                       "pairs_mapped": 80, "by_op": {"map": 2,
                                                     "stats": 1}},
            "host": {"python": "3.11.7", "machine": "x86_64",
                     "cpu_count": 8},
            "engines": {"genpair": {"pairs_total": 80}},
            "metrics": registry.snapshot(),
        }

    def test_dashboard_sections(self):
        text = "\n".join(render_top(self._reply()))
        assert "uptime 12.5s" in text
        assert "requests 3" in text and "pairs 80" in text
        assert "python 3.11.7" in text and "8 CPUs" in text
        assert "map=2" in text and "stats=1" in text
        assert "Engines (cumulative)" in text and "genpair" in text
        assert "Request latency" in text
        assert "serve.request_s.map" in text
        assert "Worker utilization" not in text

    def test_minimal_reply_renders(self):
        lines = render_top({"server": {}, "metrics": {}})
        assert any("repro top" in line for line in lines)
