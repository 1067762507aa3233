"""Table 4: area and power breakdown of GenPairX + GenDP.

Paper bottom line: GenPairX 66.80 mm^2 / 881 mW; GenPairX + GenDP
381.1 mm^2 / 209.0 W.
"""

from conftest import emit
from paper.hw import GenPairXDesign, WorkloadProfile

from repro.util import format_table

PAPER_TABLE4 = {
    "Partitioned Seeding": (0.016, 82.4),
    "Paired-Adjacency Filtering": (0.027, 15.6),
    "Light Alignment": (0.53, 453.6),
    "HBM PHY": (60.0, 320.0),
    "Centralized Buffer": (6.13, 6.09),
    "FIFOs": (0.091, 3.36),
    "GenPairX": (66.80, 881.05),
    "GenDP Chain": (174.9, 115_800.0),
    "GenDP Align": (139.4, 92_300.0),
    "GenPairX + GenDP": (381.1, 209_000.0),
}


def test_tab04_area_power(benchmark):
    design = benchmark.pedantic(
        lambda: GenPairXDesign(WorkloadProfile.paper(),
                               simulated_pairs=8000).compose(),
        rounds=1, iterations=1)
    rows = []
    for name, area, power in design.area_power_rows():
        key = name.split(" (")[0]
        paper = PAPER_TABLE4.get(key)
        paper_str = (f"{paper[0]:.3g} / {paper[1]:,.5g}"
                     if paper else "-")
        rows.append((name, paper_str, f"{area:.3f}", f"{power:,.1f}"))
    table = format_table(
        ("component", "paper (mm2 / mW)", "area mm2", "power mW"), rows,
        title="Table 4 — area and power breakdown (7nm-scaled)")
    emit("tab04_area_power", table)
    total = design.total_cost
    assert abs(total.area_mm2 - 381.1) / 381.1 < 0.05
    assert abs(total.power_mw / 1e3 - 209.0) / 209.0 < 0.05
    sub = design.genpairx_cost
    assert abs(sub.area_mm2 - 66.80) / 66.80 < 0.05
