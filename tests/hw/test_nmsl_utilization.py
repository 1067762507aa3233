"""Tests for NMSL channel-utilization telemetry (§5.2 load balancing)."""

import numpy as np
import pytest

from benchmarks.paper.hw import (NMSLConfig, NMSLSimulator,
                                 synthetic_location_counts)


@pytest.fixture(scope="module")
def report():
    counts = synthetic_location_counts(np.random.default_rng(7), 6000)
    return NMSLSimulator(NMSLConfig(window_size=1024)).simulate(counts)


class TestUtilization:
    def test_bounds(self, report):
        utilization = report.channel_utilization
        assert utilization.shape == (32,)
        assert (utilization >= 0).all()
        assert (utilization <= 1.0 + 1e-9).all()

    def test_saturated_run_highly_utilized(self, report):
        # At the saturating window size the channels are the bottleneck.
        assert report.mean_utilization > 0.7

    def test_balanced_across_channels(self, report):
        """§5.2: FIFOs + uniform placement keep the channels balanced."""
        assert report.utilization_imbalance < 1.3

    def test_starved_run_underutilized(self):
        counts = synthetic_location_counts(np.random.default_rng(8),
                                           3000)
        starved = NMSLSimulator(NMSLConfig(window_size=1)).simulate(
            counts)
        assert starved.mean_utilization < 0.4

    def test_busy_consistent_with_traffic(self, report):
        total_busy = sum(report.channel_busy_ns)
        # Busy time must at least cover the burst transfer time.
        memory = report.config.memory
        transfer_ns = report.traffic_bytes / memory.channel_bandwidth_gbps
        assert total_busy >= transfer_ns

    def test_empty_run(self):
        empty = NMSLSimulator(NMSLConfig()).simulate(
            np.zeros((0, 6), dtype=np.int64))
        assert empty.mean_utilization == 0.0
        assert empty.utilization_imbalance == 1.0
