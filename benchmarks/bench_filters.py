"""Pre-alignment filter comparison (§3.2 motivation + §8 related work).

Three results:

1. the §3.2 motivation, as running code: the whole-read exact-match
   filter's hit rate drops sharply from single-end to paired-end;
2. the filter ladder on candidate screening: GateKeeper passes more
   false candidates than SHD; neither produces scores/CIGARs, which
   Light Alignment does at similar mask cost;
3. the paper's future-work combination: SHD in front of Light Alignment
   removes most hopeless candidates before any scoring work.
"""

import numpy as np
from conftest import emit
from paper.filters import (FilteredLightAligner, exact_match_at,
                           gatekeeper_filter, shd_filter)

from repro.core import LightAligner
from repro.genome import random_sequence, reverse_complement
from repro.util import format_table


def exact_match_rates(bench_reference, bench_datasets):
    pairs = bench_datasets["dataset1"]
    single = both = 0
    for pair in pairs:
        hit1 = exact_match_at(bench_reference, pair.read1.codes,
                              pair.read1.chromosome,
                              pair.read1.ref_start) is not None
        hit2 = exact_match_at(bench_reference,
                              reverse_complement(pair.read2.codes),
                              pair.read2.chromosome,
                              pair.read2.ref_start) is not None
        single += int(hit1) + int(hit2)
        both += int(hit1 and hit2)
    return (100.0 * single / (2 * len(pairs)),
            100.0 * both / len(pairs))


def filter_ladder(bench_reference, bench_datasets):
    """True-candidate acceptance and random-candidate rejection."""
    rng = np.random.default_rng(91)
    pairs = bench_datasets["dataset2"][:150]
    light = LightAligner()
    accept = {"GateKeeper": 0, "SHD": 0, "LightAlign": 0}
    reject = {"GateKeeper": 0, "SHD": 0, "LightAlign": 0}
    total = 0
    for pair in pairs:
        read = pair.read1.codes
        chrom_len = bench_reference.length(pair.read1.chromosome)
        start = max(8, min(pair.read1.ref_start, chrom_len - 158))
        window = bench_reference.fetch(pair.read1.chromosome, start - 8,
                                       min(chrom_len, start + 158))
        total += 1
        if gatekeeper_filter(read, window, 8).passed:
            accept["GateKeeper"] += 1
        if shd_filter(read, window, 8).passed:
            accept["SHD"] += 1
        if light.align(read, window, 8) is not None:
            accept["LightAlign"] += 1
        # Random (wrong) candidate for the same read.
        junk = random_sequence(rng, len(window))
        if not gatekeeper_filter(read, junk, 8).passed:
            reject["GateKeeper"] += 1
        if not shd_filter(read, junk, 8).passed:
            reject["SHD"] += 1
        if light.align(read, junk, 8) is None:
            reject["LightAlign"] += 1
    return accept, reject, total


def combination_savings(bench_reference, bench_datasets):
    rng = np.random.default_rng(92)
    combo = FilteredLightAligner()
    pairs = bench_datasets["dataset3"][:100]
    for pair in pairs:
        read = pair.read1.codes
        chrom_len = bench_reference.length(pair.read1.chromosome)
        start = max(8, min(pair.read1.ref_start, chrom_len - 158))
        window = bench_reference.fetch(pair.read1.chromosome, start - 8,
                                       min(chrom_len, start + 158))
        combo.align(read, window, 8)
        combo.align(read, random_sequence(rng, len(window)), 8)
    return combo.stats


def test_filter_comparison(benchmark, bench_reference, bench_datasets):
    def run():
        return (exact_match_rates(bench_reference, bench_datasets),
                filter_ladder(bench_reference, bench_datasets),
                combination_savings(bench_reference, bench_datasets))

    (exact_single, exact_paired), (accept, reject, total), combo_stats \
        = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [format_table(
        ("metric", "paper", "measured"),
        [("single-end exact-match filter hit %", "55.7",
          f"{exact_single:.1f}"),
         ("paired-end exact-match filter hit %", "36.8",
          f"{exact_paired:.1f}")],
        title="§3.2 — whole-read exact-match filter (the paired-end "
              "weakness)")]
    rows = [(name, f"{100 * accept[name] / total:.1f}",
             f"{100 * reject[name] / total:.1f}",
             "no" if name != "LightAlign" else "yes")
            for name in ("GateKeeper", "SHD", "LightAlign")]
    lines.append("")
    lines.append(format_table(
        ("filter", "true-candidate accept %", "junk reject %",
         "score+CIGAR"), rows,
        title="§8 — filter ladder at the true locus vs junk"))
    lines.append("")
    lines.append(format_table(
        ("metric", "value"),
        [("candidates screened", combo_stats.candidates_seen),
         ("rejected by SHD pre-filter",
          combo_stats.filtered_out),
         ("light alignments actually run",
          combo_stats.light_attempts),
         ("rejection rate %",
          f"{100 * combo_stats.rejection_rate:.1f}")],
        title="Future work (§8) — SHD + Light Alignment combination"))
    emit("filters", "\n".join(lines))
    # Shape checks.
    assert exact_paired < exact_single
    assert reject["SHD"] >= reject["GateKeeper"]
    assert accept["GateKeeper"] >= accept["SHD"] >= accept["LightAlign"]
    assert combo_stats.rejection_rate > 0.3
