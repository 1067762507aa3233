"""§3.2-§3.3: exact-match rates (Obs 1) and seed multiplicity (Obs 2).

Paper values: single-end full-read exact match 55.7%, paired-end 36.8%;
at least one exact 50bp seed per read in both reads for 84.9-86.2% of
pairs; 9.3-9.6 reference locations per queried seed.
"""

from conftest import emit
from paper.profiles import profile_exact_matches, profile_seed_locations

from repro.util import paper_vs_measured


def run_profiles(bench_reference, bench_seedmap, bench_datasets):
    pairs = (bench_datasets["dataset1"] + bench_datasets["dataset2"]
             + bench_datasets["dataset3"])
    exact = profile_exact_matches(bench_reference, pairs)
    reads = [pair.read1 for pair in pairs]
    locations = profile_seed_locations(bench_seedmap, reads)
    return exact, locations


def test_obs_exact_match(benchmark, bench_reference, bench_seedmap,
                         bench_datasets):
    exact, locations = benchmark.pedantic(
        run_profiles, args=(bench_reference, bench_seedmap,
                            bench_datasets),
        rounds=1, iterations=1)
    rows = [
        ("single-end exact match %", "55.7",
         f"{exact.single_end_exact_pct:.1f}"),
        ("paired-end exact match %", "36.8",
         f"{exact.paired_end_exact_pct:.1f}"),
        (">=1 exact 50bp seed per read % (Obs 1)", "84.9-86.2",
         f"{exact.seed_per_read_pct:.1f}"),
        ("locations per queried seed (Obs 2)", "9.3-9.6",
         f"{locations.mean_locations_per_seed:.1f}"),
    ]
    emit("obs_exact_match",
         paper_vs_measured(rows, title="§3.2-3.3 — exact-match "
                                       "observations"))
    # Shape checks: the paired drop and the seed-level recovery.
    assert exact.paired_end_exact_pct < exact.single_end_exact_pct
    assert exact.seed_per_read_pct > exact.paired_end_exact_pct + 20
    assert locations.mean_locations_per_seed > 3.0
