"""Table 3: module throughput / latency / instance counts.

Paper rows (at NMSL's 192.7 MPair/s): Partitioned Seeding 333 MPair/s,
10 cycles, x1; Paired-Adjacency Filtering 83.0 MPair/s, 24.1 cycles, x3;
Light Alignment 1.1 MPair/s, 156 cycles, x174.

We print two versions: one sized from the paper's workload statistics and
one from the workload measured by the functional pipeline run.
"""

from conftest import emit
from paper.hw import GenPairXDesign, WorkloadProfile

from repro.util import format_table

PAPER_ROWS = {
    "Partitioned Seeding": (333.0, 10, 1),
    "Paired-Adjacency Filtering": (83.0, 24.1, 3),
    "Light Alignment": (1.1, 156, 174),
}


def test_tab03_module_sizing(benchmark, bench_pipeline_run):
    pipeline, mapper, _results = bench_pipeline_run

    def compose_both():
        paper_design = GenPairXDesign(WorkloadProfile.paper(),
                                      simulated_pairs=8000).compose()
        measured_profile = WorkloadProfile.from_pipeline(pipeline.stats,
                                                         mapper.stats)
        measured_design = GenPairXDesign(measured_profile,
                                         simulated_pairs=8000).compose()
        return paper_design, measured_design

    paper_design, measured_design = benchmark.pedantic(
        compose_both, rounds=1, iterations=1)
    lines = []
    for title, design in (("paper workload", paper_design),
                          ("measured workload", measured_design)):
        rows = []
        for module in design.modules:
            paper = PAPER_ROWS[module.name]
            rows.append((module.name, f"{paper[0]}/{paper[1]}/{paper[2]}",
                         f"{module.throughput_mpairs:.1f}",
                         f"{module.latency_cycles:.1f}",
                         module.instances))
        rows.append(("NMSL target rate", "192.7",
                     f"{design.target_mpairs:.1f}", "-", "-"))
        lines.append(format_table(
            ("module", "paper (tput/lat/inst)", "MPair/s/inst",
             "latency cyc", "instances"),
            rows, title=f"Table 3 — module sizing ({title})"))
        lines.append("")
    emit("tab03_module_sizing", "\n".join(lines))
    # Paper-workload sizing must reproduce the published instance counts.
    by_name = {m.name: m for m in paper_design.modules}
    assert by_name["Partitioned Seeding"].instances == 1
    assert by_name["Paired-Adjacency Filtering"].instances == 3
    assert 170 <= by_name["Light Alignment"].instances <= 180
