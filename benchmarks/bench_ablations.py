"""Ablations beyond the paper's tables: the design choices DESIGN.md
calls out.

1. Δ (paired-adjacency threshold) sweep — mapping recall vs candidate
   pressure;
2. seed-length sweep — Observation 1's 50bp choice against alternatives;
3. Light Alignment on/off — how much DP the light path saves.
"""

import numpy as np
from conftest import emit

from repro.core import GenPairConfig, GenPairPipeline, SeedMap
from repro.genome import ErrorModel, ReadSimulator
from repro.util import format_table
from repro.variants import evaluate_mappings


def run_delta_sweep(bench_reference, bench_seedmap, pairs):
    rows = []
    for delta in (100, 300, 500, 1000):
        pipeline = GenPairPipeline(bench_reference, seedmap=bench_seedmap,
                                   config=GenPairConfig(delta=delta))
        results = pipeline.map_pairs(pairs)
        records = [r.record1 for r in results]
        truths = [p.read1 for p in pairs]
        report = evaluate_mappings(records, truths)
        stats = pipeline.stats
        rows.append((delta, f"{report.recall:.3f}",
                     f"{report.precision:.3f}",
                     f"{stats.filter_iterations / stats.pairs_total:.1f}"))
    return rows


def run_seed_length_sweep(bench_reference, pairs):
    rows = []
    for seed_length in (30, 40, 50, 75):
        seedmap = SeedMap.build(bench_reference, seed_length=seed_length)
        pipeline = GenPairPipeline(
            bench_reference, seedmap=seedmap,
            config=GenPairConfig(seed_length=seed_length))
        results = pipeline.map_pairs(pairs)
        stats = pipeline.stats
        rows.append((seed_length,
                     f"{stats.genpair_mapped_pct:.1f}",
                     f"{stats.light_aligned_pct:.1f}",
                     f"{stats.locations_fetched / stats.pairs_total:.0f}"))
    return rows


def run_light_ablation(bench_reference, bench_seedmap, pairs):
    light_on = GenPairPipeline(bench_reference, seedmap=bench_seedmap)
    light_on.map_pairs(pairs)
    # "Off": force every pair through the DP-at-candidate path by using a
    # score threshold no light profile can reach.
    light_off = GenPairPipeline(
        bench_reference, seedmap=bench_seedmap,
        config=GenPairConfig(score_threshold=301))
    light_off.map_pairs(pairs)
    return light_on.stats, light_off.stats


def test_ablation_delta(benchmark, bench_reference, bench_seedmap,
                        bench_datasets):
    pairs = bench_datasets["dataset2"][:150]
    rows = benchmark.pedantic(run_delta_sweep,
                              args=(bench_reference, bench_seedmap,
                                    pairs),
                              rounds=1, iterations=1)
    emit("ablation_delta", format_table(
        ("delta bp", "recall", "precision", "filter iters/pair"), rows,
        title="Ablation — paired-adjacency Δ sweep"))
    recalls = [float(r[1]) for r in rows]
    assert recalls[-1] >= recalls[0]  # looser Δ maps at least as much


def test_ablation_seed_length(benchmark, bench_reference,
                              bench_datasets):
    pairs = bench_datasets["dataset3"][:100]
    rows = benchmark.pedantic(run_seed_length_sweep,
                              args=(bench_reference, pairs),
                              rounds=1, iterations=1)
    emit("ablation_seed_length", format_table(
        ("seed bp", "GenPair mapped %", "light aligned %",
         "locations/pair"), rows,
        title="Ablation — seed length sweep (paper fixes 50bp)"))
    by_length = {row[0]: row for row in rows}
    # Shorter seeds fetch more locations (more repeat hits).
    assert float(by_length[30][3]) >= float(by_length[75][3])


def test_ablation_light_alignment(benchmark, bench_reference,
                                  bench_seedmap, bench_datasets):
    pairs = bench_datasets["dataset1"][:150]
    on_stats, off_stats = benchmark.pedantic(
        run_light_ablation,
        args=(bench_reference, bench_seedmap, pairs),
        rounds=1, iterations=1)
    rows = [
        ("light aligned %", f"{on_stats.light_aligned_pct:.1f}",
         f"{off_stats.light_aligned_pct:.1f}"),
        ("DP cells at candidates / pair",
         f"{on_stats.dp_cells_candidate / on_stats.pairs_total:.0f}",
         f"{off_stats.dp_cells_candidate / off_stats.pairs_total:.0f}"),
    ]
    emit("ablation_light_alignment", format_table(
        ("metric", "light ON", "light OFF"), rows,
        title="Ablation — Light Alignment on/off (DP saved by the "
              "light path)"))
    assert off_stats.light_aligned_pct == 0.0
    assert on_stats.dp_cells_candidate < off_stats.dp_cells_candidate
