"""Tests for the NMSL event simulator (Fig 8, Table 6)."""

import numpy as np
import pytest

from benchmarks.paper.hw import (DDR5, GDDR6, HBM2, NMSLConfig, NMSLSimulator,
                                 synthetic_location_counts)


@pytest.fixture(scope="module")
def workload():
    return synthetic_location_counts(np.random.default_rng(3), 6000)


class TestWorkloadGenerator:
    def test_shape_and_bounds(self, workload):
        assert workload.shape == (6000, 6)
        assert workload.min() >= 1
        assert workload.max() <= 500

    def test_mean_near_target(self, workload):
        assert 7.0 < workload.mean() < 13.0

    def test_heavy_tail_present(self, workload):
        assert (workload > 100).sum() > 0


class TestSimulator:
    def test_hbm2_near_paper_rate(self, workload):
        report = NMSLSimulator(NMSLConfig(memory=HBM2,
                                          window_size=1024)
                               ).simulate(workload)
        # Paper: 192.7 MPair/s.
        assert 150 < report.throughput_mpairs_per_s < 240

    def test_table6_ordering_and_ratios(self, workload):
        rates = {}
        for memory in (HBM2, DDR5, GDDR6):
            report = NMSLSimulator(NMSLConfig(memory=memory,
                                              window_size=1024)
                                   ).simulate(workload)
            rates[memory.name] = report.throughput_mpairs_per_s
        assert rates["HBM2"] > rates["GDDR6"] > rates["DDR5"]
        # Paper ratios: HBM2/DDR5 = 11.4x, HBM2/GDDR6 = 9.7x.
        assert 8 < rates["HBM2"] / rates["DDR5"] < 15
        assert 7 < rates["HBM2"] / rates["GDDR6"] < 13

    def test_throughput_saturates_with_window(self, workload):
        """Fig 8a: rising then saturating throughput."""
        rates = []
        for window in (1, 8, 64, 1024):
            report = NMSLSimulator(NMSLConfig(window_size=window)
                                   ).simulate(workload)
            rates.append(report.throughput_mpairs_per_s)
        assert rates[0] < rates[1] < rates[2]
        assert rates[3] >= rates[2] * 0.98
        # Window 1024 reaches >=90% of the unbounded asymptote (paper:
        # 91.8%).
        unbounded = NMSLSimulator(NMSLConfig(window_size=None)
                                  ).simulate(workload)
        assert rates[3] >= 0.9 * unbounded.throughput_mpairs_per_s

    def test_queue_depth_grows_with_window(self, workload):
        """Fig 8b: required FIFO depth grows with the window."""
        small = NMSLSimulator(NMSLConfig(window_size=4)).simulate(workload)
        large = NMSLSimulator(NMSLConfig(window_size=1024)
                              ).simulate(workload)
        unbounded = NMSLSimulator(NMSLConfig(window_size=None)
                                  ).simulate(workload)
        assert small.max_channel_queue_depth \
            < large.max_channel_queue_depth \
            < unbounded.max_channel_queue_depth

    def test_buffer_sram_linear_in_window(self, workload):
        """Fig 8c: centralized-buffer SRAM is linear in the window."""
        r256 = NMSLSimulator(NMSLConfig(window_size=256)).simulate(
            workload)
        r1024 = NMSLSimulator(NMSLConfig(window_size=1024)).simulate(
            workload)
        assert abs(r1024.centralized_buffer.size_bytes
                   - 4 * r256.centralized_buffer.size_bytes) < 1
        # Paper: 11.93 MB at window 1024 (we model 11.72 MB).
        assert 11.0 < r1024.centralized_buffer.size_mb < 12.5

    def test_fifo_cap_respected(self):
        counts = np.full((100, 6), 10_000)
        report = NMSLSimulator(NMSLConfig(fifo_depth_cap=500)).simulate(
            counts)
        # All requests clipped to 500 locations.
        expected = 100 * 6 * (500 * 4 + 8)
        assert report.traffic_bytes == expected

    def test_bandwidth_consistent(self, workload):
        report = NMSLSimulator(NMSLConfig()).simulate(workload)
        implied = report.traffic_bytes / report.elapsed_ns
        assert abs(report.bandwidth_gbps - implied) < 1e-9

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            NMSLSimulator(NMSLConfig()).simulate(np.ones((10, 3)))

    def test_empty_workload(self):
        report = NMSLSimulator(NMSLConfig()).simulate(
            np.zeros((0, 6), dtype=np.int64))
        assert report.throughput_mpairs_per_s == 0.0
