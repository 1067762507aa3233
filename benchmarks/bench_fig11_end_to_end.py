"""Fig 11: end-to-end performance per unit area and per unit power.

Paper headline ratios of GenPairX+GenDP versus the baselines:
958x / 1575x over MM2 (CPU), 557x / 911x over GenPair+MM2 (CPU),
2.35x / 1.43x over GenCache, 1.97x / 2.38x over GenDP,
3053x / 1685x over BWA-MEM (GPU).
"""

from conftest import emit
from paper.hw import (ALL_BASELINES, GenPairXDesign,
                      PAPER_GENPAIRX_LONGREAD_MBPS, SystemPerf,
                      WorkloadProfile)

from repro.util import format_table

PAPER_RATIOS = {  # (per-area x, per-watt x) vs GenPairX+GenDP
    "MM2 (CPU)": (958.0, 1575.0),
    "GenPair+MM2 (CPU)": (557.0, 911.0),
    "GenCache": (2.35, 1.43),
    "GenDP": (1.97, 2.38),
    "BWA-MEM (GPU)": (3053.0, 1685.0),
}


def compose_ours():
    design = GenPairXDesign(WorkloadProfile.paper(),
                            simulated_pairs=8000).compose()
    ours = design.as_system_perf("GenPairX+GenDP")
    long_reads = SystemPerf("GenPairX+GenDP (Long Reads)",
                            area_mm2=ours.area_mm2, power_w=ours.power_w,
                            throughput_mbps=PAPER_GENPAIRX_LONGREAD_MBPS)
    return ours, long_reads


def test_fig11_end_to_end(benchmark):
    ours, long_reads = benchmark.pedantic(compose_ours, rounds=1,
                                          iterations=1)
    systems = list(ALL_BASELINES) + [ours, long_reads]
    rows = []
    for system in systems:
        paper = PAPER_RATIOS.get(system.name)
        measured_area_ratio = ours.per_area / system.per_area
        measured_watt_ratio = ours.per_watt / system.per_watt
        rows.append((
            system.name, f"{system.per_area:.3g}",
            f"{system.per_watt:.3g}",
            f"{paper[0]:g}" if paper else "-",
            f"{measured_area_ratio:.3g}" if paper else "-",
            f"{paper[1]:g}" if paper else "-",
            f"{measured_watt_ratio:.3g}" if paper else "-",
        ))
    table = format_table(
        ("system", "Mbp/s/mm2", "Mbp/s/W", "paper area x",
         "measured area x", "paper watt x", "measured watt x"), rows,
        title="Fig 11 — end-to-end performance per area and per Watt")
    emit("fig11_end_to_end", table)
    for system in ALL_BASELINES:
        paper_area_x, paper_watt_x = PAPER_RATIOS[system.name]
        assert abs(ours.per_area / system.per_area - paper_area_x) \
            / paper_area_x < 0.15
        assert abs(ours.per_watt / system.per_watt - paper_watt_x) \
            / paper_watt_x < 0.15
