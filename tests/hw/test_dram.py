"""Tests for the bank-level DRAM timing model."""

import numpy as np
import pytest

from benchmarks.paper.hw import (DRAM_TIMINGS, DramChannelModel, HBM2_TIMING,
                                 NMSLConfig, NMSLSimulator,
                                 synthetic_location_counts)


class TestDramTiming:
    def test_presets_registered(self):
        assert set(DRAM_TIMINGS) == {"HBM2", "DDR5", "GDDR6"}

    def test_mean_service_components(self):
        timing = HBM2_TIMING
        service = timing.mean_service_ns(burst_bytes=64)
        assert service > timing.t_cas
        assert service > 64 / timing.bandwidth_gbps

    def test_row_hit_cheaper_than_conflict(self):
        timing = HBM2_TIMING
        assert timing.t_cas < timing.t_rp_rcd + timing.t_cas


class TestDramChannelModel:
    def test_service_times_positive_and_dispersed(self):
        model = DramChannelModel(HBM2_TIMING, seed=1)
        bursts = np.full(5000, 48.0)
        times = model.sample_service_times(bursts)
        assert (times > 0).all()
        # Bank mechanics must create real dispersion, unlike the fixed
        # effective-interval model.
        assert times.std() > 2.0
        assert times.min() >= HBM2_TIMING.t_cas

    def test_bigger_bursts_cost_more(self):
        model = DramChannelModel(HBM2_TIMING, seed=2)
        small = model.sample_service_times(np.full(2000, 8.0)).mean()
        model = DramChannelModel(HBM2_TIMING, seed=2)
        large = model.sample_service_times(np.full(2000, 2000.0)).mean()
        assert large > small + 50

    def test_deterministic_given_seed(self):
        bursts = np.full(100, 48.0)
        a = DramChannelModel(HBM2_TIMING, seed=3).sample_service_times(
            bursts)
        b = DramChannelModel(HBM2_TIMING, seed=3).sample_service_times(
            bursts)
        assert np.array_equal(a, b)


class TestNmslWithDramTiming:
    def test_throughput_near_coarse_model(self):
        counts = synthetic_location_counts(np.random.default_rng(5),
                                           5000)
        coarse = NMSLSimulator(NMSLConfig(window_size=1024)).simulate(
            counts)
        detailed = NMSLSimulator(NMSLConfig(window_size=1024,
                                            dram_timing=True)).simulate(
            counts)
        ratio = detailed.throughput_mpairs_per_s \
            / coarse.throughput_mpairs_per_s
        assert 0.8 < ratio < 1.25

    def test_dispersion_delays_window_knee(self):
        """Dispersed service times need a larger window to saturate —
        the paper's Fig 8 shape (see EXPERIMENTS.md deviation note)."""
        counts = synthetic_location_counts(np.random.default_rng(6),
                                           5000)

        def saturation(dram_timing):
            small = NMSLSimulator(NMSLConfig(
                window_size=64, dram_timing=dram_timing)).simulate(
                counts).throughput_mpairs_per_s
            big = NMSLSimulator(NMSLConfig(
                window_size=None, dram_timing=dram_timing)).simulate(
                counts).throughput_mpairs_per_s
            return small / big

        assert saturation(True) < saturation(False) + 1e-9

    def test_unknown_memory_rejected(self):
        from benchmarks.paper.hw import DDR4
        counts = synthetic_location_counts(np.random.default_rng(7), 50)
        with pytest.raises(ValueError):
            NMSLSimulator(NMSLConfig(memory=DDR4,
                                     dram_timing=True)).simulate(counts)
