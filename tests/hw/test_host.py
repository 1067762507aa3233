"""Tests for the host-interface model (§7.4)."""

import pytest

from benchmarks.paper.hw import (PCIE_GEN3_X16, PCIE_GEN4_X16, host_bandwidth,
                                 link_feasibility, pair_wire_bytes)


class TestWireEncoding:
    def test_150bp_pair(self):
        # Paper: ~75 bytes per read-pair end with 2-bit encoding; a full
        # pair (both mates) is 2 x ceil(150/4) = 76 bytes.
        assert pair_wire_bytes(150) == 76

    def test_100bp_pair(self):
        assert pair_wire_bytes(100) == 50


class TestBandwidth:
    def test_paper_rates(self):
        report = host_bandwidth(192.7, 150)
        # Paper: 14.5 GB/s in, 5.4 GB/s out.
        assert report.input_gbps == pytest.approx(14.5, abs=0.3)
        assert report.output_gbps == pytest.approx(5.4, abs=0.1)

    def test_scales_with_rate(self):
        half = host_bandwidth(96.35, 150)
        full = host_bandwidth(192.7, 150)
        assert full.input_gbps == pytest.approx(2 * half.input_gbps)

    def test_pcie_feasibility(self):
        report = host_bandwidth(192.7, 150)
        feasibility = link_feasibility(report)
        # Paper: both Gen3 x16 and Gen4 x16 suffice.
        assert feasibility[PCIE_GEN3_X16.name][1]
        assert feasibility[PCIE_GEN4_X16.name][1]
        assert feasibility[PCIE_GEN4_X16.name][0] > \
            feasibility[PCIE_GEN3_X16.name][0]

    def test_gen3_insufficient_at_higher_rate(self):
        report = host_bandwidth(500.0, 150)
        feasibility = link_feasibility(report)
        assert not feasibility[PCIE_GEN3_X16.name][1]

    def test_zero_rate(self):
        report = host_bandwidth(0.0, 150)
        assert report.input_gbps == 0.0
        assert report.fits(PCIE_GEN3_X16)
