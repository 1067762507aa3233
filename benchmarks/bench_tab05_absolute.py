"""Table 5: absolute area / power / throughput of hardware accelerators.

Paper: GenCache 33.7 mm^2 / 11.2 W / 2,172 Mbp/s; GenDP 315.8 / 209.1 /
24,300; GenPairX+GenDP 381.1 / 209.0 / 57,810 (26.6x GenCache, 2.4x
GenDP in throughput).

§7.4 host interface at the composed design's pair rate: 14.5 GB/s in
(2-bit encoded pairs), 5.4 GB/s out (location + CIGAR), within both
PCIe Gen3 x16 and Gen4 x16.
"""

import pytest
from conftest import emit
from paper.hw import (GENCACHE, GENDP_STANDALONE, PCIE_GEN3_X16,
                      PCIE_GEN4_X16, GenPairXDesign, WorkloadProfile,
                      host_bandwidth, link_feasibility)

from repro.util import format_table


def test_tab05_absolute(benchmark):
    design = benchmark.pedantic(
        lambda: GenPairXDesign(WorkloadProfile.paper(),
                               simulated_pairs=8000).compose(),
        rounds=1, iterations=1)
    ours = design.as_system_perf("GenPairX + GenDP")
    rows = [
        ("GenCache", GENCACHE.area_mm2, GENCACHE.power_w,
         f"{GENCACHE.throughput_mbps:,.0f}", "2,172"),
        ("GenDP", GENDP_STANDALONE.area_mm2, GENDP_STANDALONE.power_w,
         f"{GENDP_STANDALONE.throughput_mbps:,.0f}", "24,300"),
        ("GenPairX + GenDP", f"{ours.area_mm2:.1f}",
         f"{ours.power_w:.1f}", f"{ours.throughput_mbps:,.0f}",
         "57,810"),
    ]
    table = format_table(
        ("accelerator", "area mm2", "power W", "tput Mbp/s",
         "paper tput"), rows,
        title="Table 5 — absolute performance of hardware accelerators")
    host = host_bandwidth(design.target_mpairs,
                          design.workload.read_length)
    links = link_feasibility(host)
    host_table = format_table(
        ("host interface", "ours", "paper"),
        [("input GB/s", f"{host.input_gbps:.1f}", "14.5"),
         ("output GB/s", f"{host.output_gbps:.1f}", "5.4")]
        + [(f"{name} headroom", f"{headroom:.2f}x "
            f"({'OK' if fits else 'insufficient'})", "suffices")
           for name, (headroom, fits) in links.items()],
        title=f"§7.4 host interface at {design.target_mpairs:.1f} "
              f"MPair/s")
    emit("tab05_absolute", table + "\n\n" + host_table)
    assert abs(ours.throughput_mbps - 57_810) / 57_810 < 0.1
    assert 20 < ours.throughput_mbps / GENCACHE.throughput_mbps < 32
    assert 2.0 < ours.throughput_mbps / GENDP_STANDALONE.throughput_mbps \
        < 2.9
    assert host.input_gbps == pytest.approx(14.5, abs=0.3)
    assert host.output_gbps == pytest.approx(5.4, abs=0.1)
    assert links[PCIE_GEN3_X16.name][1] and links[PCIE_GEN4_X16.name][1]
    assert links[PCIE_GEN4_X16.name][0] > links[PCIE_GEN3_X16.name][0]
