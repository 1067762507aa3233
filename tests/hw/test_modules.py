"""Tests for the compute-module sizing models (Table 3)."""

import pytest

from benchmarks.paper.hw import (filtering_module, light_alignment_module,
                                 seeding_module)


class TestTable3:
    """Paper workload parameters must reproduce Table 3's rows."""

    def test_seeding_row(self):
        sizing = seeding_module(192.7)
        assert sizing.throughput_mpairs == pytest.approx(333.3, abs=0.5)
        assert sizing.latency_cycles == 10
        assert sizing.instances == 1

    def test_filtering_row(self):
        sizing = filtering_module(192.7, mean_iterations_per_pair=24.1)
        assert sizing.throughput_mpairs == pytest.approx(83.0, abs=0.5)
        assert sizing.instances == 3

    def test_light_alignment_row(self):
        sizing = light_alignment_module(192.7, read_length=150,
                                        mean_alignments_per_pair=11.6)
        assert sizing.latency_cycles == 156
        assert sizing.throughput_mpairs == pytest.approx(1.1, abs=0.05)
        # Paper: 174 instances (we get 176 from ceil rounding).
        assert 170 <= sizing.instances <= 180


class TestScalingBehaviour:
    def test_aggregate_meets_target(self):
        for target in (50.0, 192.7, 400.0):
            for sizing in (seeding_module(target),
                           filtering_module(target),
                           light_alignment_module(target)):
                assert sizing.aggregate_throughput_mpairs >= target

    def test_cost_scales_with_instances(self):
        small = light_alignment_module(50.0)
        big = light_alignment_module(200.0)
        assert big.instances > small.instances
        assert big.total_cost.area_mm2 > small.total_cost.area_mm2
        assert big.total_cost.power_mw > small.total_cost.power_mw

    def test_lower_clock_needs_more_instances(self):
        fast = light_alignment_module(192.7, clock_ghz=2.0)
        slow = light_alignment_module(192.7, clock_ghz=1.0)
        assert slow.instances > fast.instances

    def test_easier_workload_fewer_instances(self):
        hard = light_alignment_module(192.7,
                                      mean_alignments_per_pair=11.6)
        easy = light_alignment_module(192.7,
                                      mean_alignments_per_pair=2.0)
        assert easy.instances < hard.instances

    def test_degenerate_workload_guarded(self):
        sizing = filtering_module(100.0, mean_iterations_per_pair=0.0)
        assert sizing.instances >= 1

    def test_table4_module_costs(self):
        """Instance costs x Table 3 counts reproduce Table 4's rows."""
        seeding = seeding_module(192.7).total_cost
        assert seeding.area_mm2 == pytest.approx(0.016, rel=0.01)
        assert seeding.power_mw == pytest.approx(82.4, rel=0.01)
        filtering = filtering_module(192.7, 24.1).total_cost
        assert filtering.area_mm2 == pytest.approx(0.027, rel=0.01)
        assert filtering.power_mw == pytest.approx(15.6, rel=0.01)
