"""Metrics primitives: counters, gauges, histograms, snapshots."""

import json

import pytest

from repro.obs import (BUCKET_BOUNDS, Histogram, MetricsRegistry,
                       get_registry, host_metadata, metrics_enabled,
                       set_metrics_enabled, write_metrics_json)


class TestPrimitives:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("pairs")
        counter.inc()
        counter.inc(41)
        assert registry.counter("pairs").value == 42
        assert registry.counter("pairs") is counter

    def test_gauge_is_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("queue_depth").set(4)
        registry.gauge("queue_depth").set(2)
        assert registry.gauge("queue_depth").value == 2.0

    def test_histogram_bucket_placement(self):
        hist = Histogram(bounds=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.005, 0.05, 5.0):
            hist.observe(value)
        assert hist.counts == [1, 2, 1, 1]
        assert hist.count == 5
        assert hist.min == 0.0005 and hist.max == 5.0
        assert hist.mean == pytest.approx(5.0605 / 5)

    def test_histogram_quantile_from_buckets(self):
        hist = Histogram(bounds=(0.001, 0.01, 0.1))
        for _ in range(99):
            hist.observe(0.005)
        hist.observe(3.0)
        assert hist.quantile(0.5) == 0.01
        assert hist.quantile(1.0) == 3.0  # overflow -> exact max
        assert Histogram().quantile(0.5) == 0.0

    def test_default_bounds_are_log_spaced_and_sorted(self):
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-5)
        assert BUCKET_BOUNDS[-1] == pytest.approx(50.0)


class TestSnapshotMerge:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("chunks").inc(3)
        registry.gauge("queue_depth").set(2)
        hist = registry.histogram("chunk_s")
        hist.observe(0.002)
        hist.observe(0.2)
        return registry

    def test_snapshot_is_plain_json(self):
        snapshot = self._populated().snapshot()
        json.dumps(snapshot)  # no numpy scalars, no metric objects
        assert snapshot["counters"] == {"chunks": 3}
        assert snapshot["gauges"] == {"queue_depth": 2.0}
        hist = snapshot["histograms"]["chunk_s"]
        assert hist["count"] == 2
        assert sum(hist["counts"]) == 2

    def test_empty_histogram_reports_zero_min_max(self):
        registry = MetricsRegistry()
        registry.histogram("idle_s")
        hist = registry.snapshot()["histograms"]["idle_s"]
        assert hist["min"] == 0.0 and hist["max"] == 0.0

    def test_reset_drops_everything(self):
        registry = self._populated()
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}}


class TestProcessGlobals:
    def test_get_registry_is_one_instance(self):
        assert get_registry() is get_registry()

    def test_enable_flag_round_trip(self):
        previous = set_metrics_enabled(False)
        try:
            assert metrics_enabled() is False
            assert get_registry().enabled is False
            assert set_metrics_enabled(True) is False
            assert metrics_enabled() is True
        finally:
            set_metrics_enabled(previous)

    def test_host_metadata_keys(self):
        meta = host_metadata()
        assert set(meta) == {"python", "implementation", "platform",
                             "machine", "cpu_count"}
        assert meta["python"].count(".") >= 1

    def test_write_metrics_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("pairs").inc(5)
        out = tmp_path / "metrics.json"
        write_metrics_json(out, registry)
        payload = json.loads(out.read_text())
        assert payload["metrics"]["counters"] == {"pairs": 5}
        assert payload["host"]["cpu_count"] == host_metadata()["cpu_count"]
        assert out.read_text().endswith("\n")
