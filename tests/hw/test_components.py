"""Tests for scaling, SRAM, memory, GenDP, and baseline constants."""

import pytest

from benchmarks.paper.hw import (ALL_BASELINES, BlockCost, DDR5, GDDR6,
                                 GENCACHE, GENDP_STANDALONE, GenDPSizing, HBM2,
                                 MEMORY_PRESETS, MM2_CPU, PAPER_GENPAIRX_GENDP,
                                 SramModel, centralized_buffer_size,
                                 paper_sizing, residual_mcups)
from benchmarks.paper.hw.scaling import AREA_SCALE_TO_7NM, POWER_SCALE_TO_7NM


class TestScaling:
    def test_paper_factors(self):
        assert POWER_SCALE_TO_7NM == 3.5
        assert AREA_SCALE_TO_7NM == 1.91

    def test_scaled_to_7nm(self):
        cost = BlockCost(area_mm2=1.91, power_mw=3.5)
        scaled = cost.scaled_to_7nm()
        assert scaled.area_mm2 == pytest.approx(1.0)
        assert scaled.power_mw == pytest.approx(1.0)

    def test_add_and_times(self):
        a = BlockCost(1.0, 10.0)
        b = BlockCost(2.0, 20.0)
        assert (a + b).area_mm2 == 3.0
        assert a.times(3).power_mw == 30.0


class TestSram:
    def test_table4_centralized_buffer_row(self):
        size = centralized_buffer_size(1024)
        sram = SramModel(size_bytes=size, activity=0.4)
        # Paper: 11.74 MB -> 6.13 mm^2 / 6.09 mW.
        assert sram.size_mb == pytest.approx(11.72, abs=0.1)
        assert sram.area_mm2 == pytest.approx(6.13, rel=0.05)
        assert sram.power_mw == pytest.approx(6.09, rel=0.25)

    def test_table4_fifo_row(self):
        sram = SramModel(size_bytes=190 * 1024, activity=1.0)
        assert sram.area_mm2 == pytest.approx(0.091, rel=0.1)
        assert sram.power_mw == pytest.approx(3.36, rel=0.05)

    def test_buffer_scales_with_window(self):
        assert centralized_buffer_size(2048) == \
            2 * centralized_buffer_size(1024)


class TestMemoryConfigs:
    def test_presets_registered(self):
        assert set(MEMORY_PRESETS) == {"HBM2", "GDDR6", "DDR5", "DDR4"}

    def test_hbm2_aggregate_bandwidth(self):
        assert HBM2.total_bandwidth_gbps == 32 * 32.0

    def test_service_time_components(self):
        service = HBM2.service_time_ns(burst_bytes=64)
        assert service == pytest.approx(26.0 + 64 / 32.0)

    def test_random_access_ordering(self):
        """Effective random access: HBM2 best, GDDR6 worst (Table 6)."""
        assert HBM2.random_access_ns < DDR5.random_access_ns \
            < GDDR6.random_access_ns


class TestGenDP:
    def test_paper_sizing_reproduces_table4(self):
        sizing = paper_sizing()
        chain = sizing.chain_cost
        align = sizing.align_cost
        assert chain.area_mm2 == pytest.approx(174.9, rel=0.01)
        assert chain.power_mw == pytest.approx(115.8e3, rel=0.01)
        assert align.area_mm2 == pytest.approx(139.4, rel=0.01)
        assert align.power_mw == pytest.approx(92.3e3, rel=0.01)

    def test_residual_mcups_conversion(self):
        # 1000 cells/pair at 192.7 MPair/s = 192,700 MCUPS.
        assert residual_mcups(1000.0, 192.7) == pytest.approx(192_700.0)

    def test_total_cost_additive(self):
        sizing = GenDPSizing(chain_mcups=1000.0, align_mcups=2000.0)
        total = sizing.total_cost
        assert total.area_mm2 == pytest.approx(
            sizing.chain_cost.area_mm2 + sizing.align_cost.area_mm2)


class TestBaselines:
    def test_table5_rows(self):
        assert GENCACHE.area_mm2 == 33.7
        assert GENCACHE.power_w == 11.2
        assert GENCACHE.throughput_mbps == 2172.0
        assert GENDP_STANDALONE.throughput_mbps == 24_300.0

    def test_headline_ratios_recovered(self):
        """The reconstructed CPU/GPU rows must reproduce the paper's
        headline ratios against GenPairX+GenDP."""
        ours = PAPER_GENPAIRX_GENDP
        assert ours.per_area / MM2_CPU.per_area == pytest.approx(958,
                                                                 rel=0.05)
        assert ours.per_watt / MM2_CPU.per_watt == pytest.approx(1575,
                                                                 rel=0.05)
        gencache_area_ratio = ours.per_area / GENCACHE.per_area
        assert gencache_area_ratio == pytest.approx(2.35, rel=0.05)
        gencache_watt_ratio = ours.per_watt / GENCACHE.per_watt
        assert gencache_watt_ratio == pytest.approx(1.43, rel=0.05)
        gendp_watt_ratio = ours.per_watt / GENDP_STANDALONE.per_watt
        assert gendp_watt_ratio == pytest.approx(2.38, rel=0.05)

    def test_all_baselines_positive(self):
        for system in ALL_BASELINES:
            assert system.per_area > 0
            assert system.per_watt > 0

    def test_throughput_ordering(self):
        """Paper Table 5: GenPairX+GenDP > GenDP > GenCache."""
        assert PAPER_GENPAIRX_GENDP.throughput_mbps \
            > GENDP_STANDALONE.throughput_mbps \
            > GENCACHE.throughput_mbps
