"""Fig 1: execution-time breakdown of the baseline mapper.

Paper: on three GIAB paired-end datasets, Minimap2 spends 83.4-84.9% of
its time in the DP stages (chaining + alignment).  We run the baseline
seed-chain-align mapper with its stage timer and print the same breakdown.
"""

from conftest import emit

from repro.analysis import profile_breakdown
from repro.mapper import Mm2LikeMapper
from repro.util import format_table

PAPER_DP_SHARE = (83.4, 84.9)  # published range across datasets


def run_breakdown(bench_reference, bench_index, bench_datasets):
    reports = []
    for name, pairs in bench_datasets.items():
        mapper = Mm2LikeMapper(bench_reference, index=bench_index)
        reports.append(profile_breakdown(bench_reference, pairs[:120],
                                         dataset=name, mapper=mapper))
    return reports


def test_fig01_breakdown(benchmark, bench_reference, bench_index,
                         bench_datasets):
    reports = benchmark.pedantic(
        run_breakdown, args=(bench_reference, bench_index,
                             bench_datasets),
        rounds=1, iterations=1)
    rows = []
    for report in reports:
        pct = report.percent_by_stage
        rows.append((report.dataset, f"{pct['seeding']:.1f}",
                     f"{pct['chaining']:.1f}",
                     f"{pct['alignment']:.1f}",
                     f"{pct.get('pairing', 0.0):.1f}",
                     f"{report.dp_share_pct:.1f}"))
    table = format_table(
        ("dataset", "seed %", "chain %", "align %", "pair %",
         "chain+align %"), rows,
        title=("Fig 1 — baseline mapper stage breakdown "
               f"(paper: chaining+alignment {PAPER_DP_SHARE[0]}-"
               f"{PAPER_DP_SHARE[1]}%)"))
    emit("fig01_breakdown", table + (
        "\nnote: chain % is this implementation's wall time — the "
        "chaining DP is a numpy sweep over anchor columns here, so its "
        "share sits below the paper's chaining-dominated Fig 1; the "
        "hardware sizing (GenDP MCUPS, §7.4) reads the "
        "dp_cells_chaining count, which the sweep leaves unchanged."))
    # Shape check: DP stages dominate on every dataset.
    for report in reports:
        assert report.dp_share_pct > 60.0
