"""Tests for the full design composition (Tables 4-5)."""

import pytest

from benchmarks.paper.hw import (GenPairXDesign, PAPER_GENPAIRX_GENDP,
                                 WorkloadProfile, DDR5, HBM2)


@pytest.fixture(scope="module")
def paper_design():
    return GenPairXDesign(WorkloadProfile.paper(),
                          simulated_pairs=8000).compose()


class TestPaperDesign:
    def test_nmsl_rate_near_paper(self, paper_design):
        assert paper_design.target_mpairs == pytest.approx(192.7, rel=0.1)

    def test_throughput_near_table5(self, paper_design):
        assert paper_design.throughput_mbps == pytest.approx(57_810,
                                                             rel=0.1)

    def test_total_area_power_near_table4(self, paper_design):
        total = paper_design.total_cost
        assert total.area_mm2 == pytest.approx(381.1, rel=0.05)
        assert total.power_mw / 1e3 == pytest.approx(209.0, rel=0.05)

    def test_genpairx_subtotal(self, paper_design):
        sub = paper_design.genpairx_cost
        # Table 4: GenPairX alone 66.80 mm^2, 881 mW.
        assert sub.area_mm2 == pytest.approx(66.8, rel=0.05)
        assert sub.power_mw == pytest.approx(881.0, rel=0.15)

    def test_per_area_per_watt_near_paper(self, paper_design):
        perf = paper_design.as_system_perf()
        assert perf.per_area == pytest.approx(
            PAPER_GENPAIRX_GENDP.per_area, rel=0.1)
        assert perf.per_watt == pytest.approx(
            PAPER_GENPAIRX_GENDP.per_watt, rel=0.1)

    def test_area_power_rows_complete(self, paper_design):
        names = [name for name, _, _ in paper_design.area_power_rows()]
        assert "Partitioned Seeding" in names
        assert "HBM PHY" in names
        assert "GenPairX" in names
        assert "GenDP Chain" in names
        assert names[-1] == "GenPairX + GenDP"

    def test_gendp_dominates_power(self, paper_design):
        """§7.5: GenDP is the dominant power consumer."""
        gendp_power = paper_design.gendp.total_cost.power_mw
        assert gendp_power > 0.9 * paper_design.total_cost.power_mw


class TestWorkloadSensitivity:
    def test_ddr5_design_slower(self):
        ddr5 = GenPairXDesign(WorkloadProfile.paper(), memory=DDR5,
                              simulated_pairs=4000).compose()
        hbm = GenPairXDesign(WorkloadProfile.paper(), memory=HBM2,
                             simulated_pairs=4000).compose()
        assert ddr5.target_mpairs < hbm.target_mpairs / 5

    def test_per_watt_stable_across_memories(self):
        """Table 6: throughput/W varies far less than throughput."""
        perfs = {}
        for memory in (HBM2, DDR5):
            report = GenPairXDesign(WorkloadProfile.paper(),
                                    memory=memory,
                                    simulated_pairs=4000).compose()
            rate = report.target_mpairs
            power_w = report.total_cost.power_mw / 1e3
            perfs[memory.name] = (rate, rate / power_w)
        rate_ratio = perfs["HBM2"][0] / perfs["DDR5"][0]
        per_watt_ratio = perfs["HBM2"][1] / perfs["DDR5"][1]
        assert rate_ratio > 5
        assert per_watt_ratio < rate_ratio / 2

    def test_from_pipeline_profile(self):
        from repro.core import PipelineStats
        stats = PipelineStats(pairs_total=100, filter_iterations=2000,
                              light_attempts=500,
                              locations_fetched=3000,
                              dp_cells_candidate=100_000,
                              dp_cells_full=50_000)
        profile = WorkloadProfile.from_pipeline(stats)
        assert profile.mean_filter_iterations == 20.0
        assert profile.mean_light_alignments == 5.0
        assert profile.mean_locations_per_seed == 5.0
        assert profile.align_cells_per_pair == 1500.0

    def test_throughput_under_nominal_is_nmsl_bound(self, paper_design):
        rate, bottleneck = paper_design.throughput_under(
            WorkloadProfile.paper())
        assert bottleneck == "NMSL"
        assert rate == pytest.approx(paper_design.target_mpairs)

    def test_throughput_under_heavy_dp_is_gendp_bound(self, paper_design):
        from dataclasses import replace
        heavy = replace(WorkloadProfile.paper(),
                        align_cells_per_pair=WorkloadProfile.paper()
                        .align_cells_per_pair * 5)
        rate, bottleneck = paper_design.throughput_under(heavy)
        assert bottleneck == "GenDP (DP fallback)"
        assert rate < paper_design.target_mpairs

    def test_throughput_under_heavy_light_is_light_bound(self,
                                                         paper_design):
        from dataclasses import replace
        heavy = replace(WorkloadProfile.paper(),
                        mean_light_alignments=80.0,
                        chain_cells_per_pair=0.0,
                        align_cells_per_pair=0.0)
        rate, bottleneck = paper_design.throughput_under(heavy)
        assert bottleneck == "Light Alignment"
        assert rate < paper_design.target_mpairs

    def test_harder_workload_bigger_gendp(self):
        easy = WorkloadProfile(chain_cells_per_pair=100,
                               align_cells_per_pair=1000)
        hard = WorkloadProfile(chain_cells_per_pair=5000,
                               align_cells_per_pair=50_000)
        easy_design = GenPairXDesign(easy, simulated_pairs=2000).compose()
        hard_design = GenPairXDesign(hard, simulated_pairs=2000).compose()
        assert hard_design.gendp.total_cost.area_mm2 > \
            easy_design.gendp.total_cost.area_mm2 * 5
