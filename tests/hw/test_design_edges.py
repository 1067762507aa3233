"""Additional design-composition edge cases."""

import pytest

from benchmarks.paper.hw import (GDDR6, MEMORY_PRESETS, GenPairXDesign,
                                 NMSLConfig, NMSLSimulator, WorkloadProfile,
                                 host_bandwidth, link_feasibility,
                                 synthetic_location_counts)


class TestComposeVariants:
    def test_unbounded_window_composes(self):
        design = GenPairXDesign(WorkloadProfile.paper(), window_size=None,
                                simulated_pairs=2000).compose()
        # Unbounded window: buffer sized to the whole run (documented
        # behaviour of the "No Window" configuration).
        assert design.centralized_buffer.size_mb > 20

    def test_small_window_underutilizes(self):
        small = GenPairXDesign(WorkloadProfile.paper(), window_size=2,
                               simulated_pairs=2000).compose()
        full = GenPairXDesign(WorkloadProfile.paper(), window_size=1024,
                              simulated_pairs=2000).compose()
        assert small.target_mpairs < full.target_mpairs / 2
        # Fewer light-align instances needed at the lower rate.
        assert small.modules[2].instances < full.modules[2].instances

    def test_gddr6_design(self):
        design = GenPairXDesign(WorkloadProfile.paper(), memory=GDDR6,
                                simulated_pairs=2000).compose()
        assert 10 < design.target_mpairs < 40

    def test_host_bandwidth_tracks_design(self):
        design = GenPairXDesign(WorkloadProfile.paper(),
                                simulated_pairs=2000).compose()
        report = host_bandwidth(design.target_mpairs,
                                design.workload.read_length)
        assert report.input_gbps > report.output_gbps

    def test_longer_reads_scale_throughput(self):
        profile_250 = WorkloadProfile(read_length=250)
        design = GenPairXDesign(profile_250,
                                simulated_pairs=2000).compose()
        assert design.throughput_mbps == pytest.approx(
            design.target_mpairs * 500, rel=1e-6)
        # Longer reads -> more cycles per light alignment -> more
        # instances at the same pair rate.
        baseline = GenPairXDesign(WorkloadProfile.paper(),
                                  simulated_pairs=2000).compose()
        assert design.modules[2].instances > \
            baseline.modules[2].instances * 1.2

    @pytest.mark.parametrize("memory", ["HBM2", "GDDR6", "DDR5"])
    def test_full_report_per_memory(self, memory):
        """Every section of the Table 3/4/5 + §7.4 report composes."""
        design = GenPairXDesign(WorkloadProfile.paper(),
                                memory=MEMORY_PRESETS[memory],
                                simulated_pairs=1500).compose()
        assert [m.name for m in design.modules][:3] == [
            "Partitioned Seeding", "Paired-Adjacency Filtering",
            "Light Alignment"]
        assert all(m.instances >= 1 and m.throughput_mpairs > 0
                   for m in design.modules)
        rows = design.area_power_rows()
        assert rows[-1][0] == "GenPairX + GenDP"
        assert rows[-1][1] == pytest.approx(design.total_cost.area_mm2)
        perf = design.as_system_perf()
        assert perf.throughput_mbps > 0
        assert perf.per_area > 0 and perf.per_watt > 0
        report = host_bandwidth(design.target_mpairs,
                                design.workload.read_length)
        links = link_feasibility(report)
        assert len(links) == 2
        assert all(headroom > 0 for headroom, _ in links.values())


class TestOutOfRangeInputs:
    @pytest.mark.parametrize("kwargs, name", [
        ({"window_size": 0}, "window_size"),
        ({"window_size": -1}, "window_size"),
        ({"simulated_pairs": 0}, "simulated_pairs")],
        ids=["window-zero", "window-negative", "simulated-pairs-zero"])
    def test_rejected_naming_the_argument(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            GenPairXDesign(WorkloadProfile.paper(), **kwargs)


class TestWorkloadClamping:
    def test_low_location_mean_clamped(self):
        import numpy as np
        counts = synthetic_location_counts(np.random.default_rng(1),
                                           1000, mean=1.0)
        assert counts.min() >= 1
        report = NMSLSimulator(NMSLConfig()).simulate(counts)
        assert report.throughput_mpairs_per_s > 0

    def test_zero_stats_profile(self):
        from repro.core import PipelineStats
        profile = WorkloadProfile.from_pipeline(PipelineStats())
        assert profile.mean_filter_iterations >= 1.0
        assert profile.mean_light_alignments >= 1.0
        design = GenPairXDesign(profile, simulated_pairs=1000).compose()
        assert design.total_cost.area_mm2 > 60
