"""Fig 12: sensitivity to per-base sequencing error rate.

Paper: (a) DP-fallback fractions after Paired-Adjacency Filtering and
after Light Alignment grow once the error rate exceeds ~0.1-0.2%, with
the Light-Alignment arc above the PA arc under Mason's uniform profile;
(b) GenPairX+GenDP throughput is flat (~192 MPair/s) below 0.2% per-bp
error and degrades beyond as DP alignment becomes the bottleneck.
"""

import numpy as np
from conftest import emit
from paper.hw import GenPairXDesign, WorkloadProfile

from repro.core import GenPairPipeline
from repro.genome import ErrorModel, ReadSimulator
from repro.util import format_table

ERROR_RATES = (0.0001, 0.0005, 0.001, 0.002, 0.005, 0.01)
PAIRS_PER_POINT = 150


def run_sweep(bench_reference, bench_seedmap):
    # The design is provisioned once, for the paper's nominal workload;
    # each error rate then presents a harder workload to that fixed
    # design and the bottleneck model yields the sustained rate (§7.7).
    design = GenPairXDesign(WorkloadProfile.paper(),
                            simulated_pairs=4000).compose()
    measurements = []
    for rate in ERROR_RATES:
        simulator = ReadSimulator(bench_reference,
                                  error_model=ErrorModel.mason_default(
                                      rate),
                                  seed=int(rate * 1e7) + 1)
        pairs = simulator.simulate_pairs(PAIRS_PER_POINT)
        pipeline = GenPairPipeline(bench_reference,
                                   seedmap=bench_seedmap)
        pipeline.map_pairs(pairs)
        stats = pipeline.stats
        pa_fallback = (stats.seedmap_fallback_pct
                       + stats.filter_fallback_pct
                       + 100 * stats.fraction(stats.residual_fallback))
        light_fallback = stats.light_fallback_pct
        measurements.append((rate, pa_fallback, light_fallback,
                             WorkloadProfile.from_pipeline(stats)))
    # Our banded functional DP spends far fewer cells per residual pair
    # than the full Smith-Waterman units GenDP is provisioned in, so the
    # measured demand is normalized to the paper's nominal residual
    # intensity at the lowest error rate; the *relative* growth of DP
    # demand with the error rate is the measured signal.
    nominal = WorkloadProfile.paper()
    nominal_cells = (nominal.chain_cells_per_pair
                     + nominal.align_cells_per_pair)
    baseline = measurements[0][3]
    baseline_cells = max(1.0, baseline.chain_cells_per_pair
                         + baseline.align_cells_per_pair)
    scale = nominal_cells / baseline_cells
    points = []
    for rate, pa_fallback, light_fallback, measured in measurements:
        from dataclasses import replace
        scaled = replace(
            measured,
            chain_cells_per_pair=measured.chain_cells_per_pair * scale,
            align_cells_per_pair=measured.align_cells_per_pair * scale)
        throughput, bottleneck = design.throughput_under(scaled)
        points.append((rate, pa_fallback, light_fallback, throughput,
                       bottleneck))
    return points


def test_fig12_error_rate(benchmark, bench_reference, bench_seedmap):
    points = benchmark.pedantic(run_sweep,
                                args=(bench_reference, bench_seedmap),
                                rounds=1, iterations=1)
    rows = [(f"{rate * 100:.2f}%", f"{pa:.1f}", f"{light:.1f}",
             f"{tput:.0f}", bottleneck)
            for rate, pa, light, tput, bottleneck in points]
    table = format_table(
        ("per-bp error", "DP fallback after PA-filter %",
         "after Light-Align %", "GenPairX+GenDP MPair/s", "bottleneck"),
        rows,
        title=("Fig 12 — error-rate sensitivity (paper: flat ~192 "
               "MPair/s below 0.2%, DP becomes the bottleneck beyond)"))
    emit("fig12_error_rate", table)
    # Shape checks.
    low = points[0]
    high = points[-1]
    # Fallback grows with error rate.
    assert high[1] + high[2] > low[1] + low[2]
    # Throughput flat at low error, lower at 1%.
    assert abs(points[1][3] - points[0][3]) / points[0][3] < 0.25
    assert high[3] < low[3]
    # The limiting resource shifts from NMSL to the DP fallback engine
    # as errors grow (the paper's §7.7 bottleneck analysis).
    assert low[4] == "NMSL"
    assert high[4] != "NMSL"
    # Under Mason's profile, the light-align arc exceeds the PA arc at
    # moderate error rates (paper's second observation).
    mid = points[3]
    assert mid[2] >= mid[1] * 0.8
