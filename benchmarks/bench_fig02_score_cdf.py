"""Fig 2 + Observation 3: CDF of the min pair alignment score.

Paper: 69.9% of read-pairs exhibit edits that are solely mismatches or
one consecutive indel run; Fig 2 plots the CDF of the minimum alignment
score of the two reads in each pair over [200, 300].
"""

from conftest import emit
from paper.profiles import analyze_edit_patterns

from repro.util import format_table

PAPER_SIMPLE_FRACTION = 69.9


def run_analysis(bench_reference, bench_datasets):
    reports = {}
    for name, pairs in bench_datasets.items():
        reports[name] = analyze_edit_patterns(bench_reference,
                                              pairs[:150])
    return reports


def test_fig02_score_cdf(benchmark, bench_reference, bench_datasets):
    reports = benchmark.pedantic(run_analysis,
                                 args=(bench_reference, bench_datasets),
                                 rounds=1, iterations=1)
    scores = list(range(200, 301, 10))
    rows = []
    for s in scores:
        row = [s]
        for name in sorted(reports):
            cdf = dict(reports[name].score_cdf([s]))
            row.append(f"{cdf[s]:.3f}")
        rows.append(tuple(row))
    headers = ("score s",) + tuple(f"P(min<=s) {name}"
                                   for name in sorted(reports))
    lines = [format_table(headers, rows,
                          title="Fig 2 — CDF of min alignment score per "
                                "pair")]
    simple_rows = [(name, PAPER_SIMPLE_FRACTION,
                    f"{reports[name].simple_fraction_pct:.1f}")
                   for name in sorted(reports)]
    lines.append("")
    lines.append(format_table(
        ("dataset", "paper simple %", "measured simple %"), simple_rows,
        title="Observation 3 — pairs with only simple edits"))
    emit("fig02_score_cdf", "\n".join(lines))
    for report in reports.values():
        # Shape: a solid majority of pairs are simple, but not all.
        assert 45.0 < report.simple_fraction_pct <= 100.0
        # CDF shape: most mass concentrated at high scores.
        top = dict(report.score_cdf([290]))[290]
        assert top < 1.0 or report.simple_fraction_pct == 100.0
