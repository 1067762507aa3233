"""Table 6: GenPairX scalability across memory technologies.

Paper: DDR5 (4ch) 16.91 MPair/s / 0.75 MPair/s/W; GDDR6 (8ch) 19.80 /
0.79; HBM2 (32ch) 192.7 / 0.91.  Throughput scales with channels, while
throughput-per-Watt barely moves because GenDP dominates power.
"""

from conftest import emit
from paper.hw import (DDR5, GDDR6, GenPairXDesign, HBM2, WorkloadProfile)

from repro.util import format_table

PAPER = {
    "DDR5": (16.91, 0.75),
    "GDDR6": (19.80, 0.79),
    "HBM2": (192.7, 0.91),
}


def run_sweep():
    designs = {}
    for memory in (DDR5, GDDR6, HBM2):
        designs[memory.name] = GenPairXDesign(
            WorkloadProfile.paper(), memory=memory,
            simulated_pairs=6000).compose()
    return designs


def test_tab06_memory_tech(benchmark):
    designs = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = []
    for name in ("DDR5", "GDDR6", "HBM2"):
        design = designs[name]
        rate = design.target_mpairs
        # GenDP is sized for each configuration's own pair rate, so total
        # power scales almost proportionally with throughput — which is
        # why the paper finds throughput/W nearly flat across memories
        # (GenDP dominates power, §7.5).
        per_watt = rate / (design.total_cost.power_mw / 1e3)
        paper_rate, paper_per_watt = PAPER[name]
        rows.append((name, f"{paper_rate}", f"{rate:.1f}",
                     f"{paper_per_watt}", f"{per_watt:.2f}"))
    table = format_table(
        ("memory", "paper MPair/s", "measured MPair/s",
         "paper MPair/s/W", "measured MPair/s/W"), rows,
        title="Table 6 — memory technology comparison")
    emit("tab06_memory_tech", table)
    rates = {name: designs[name].target_mpairs for name in designs}
    assert rates["HBM2"] > rates["GDDR6"] > rates["DDR5"]
    assert abs(rates["HBM2"] / rates["DDR5"] - 11.4) < 3.5
    assert abs(rates["HBM2"] / rates["GDDR6"] - 9.7) < 3.0
    for name, (paper_rate, _pw) in PAPER.items():
        assert abs(rates[name] - paper_rate) / paper_rate < 0.25
