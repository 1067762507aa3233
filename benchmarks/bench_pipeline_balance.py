"""§7.2 "Optimization for Balancing": the circular-buffer ablation.

The paper inserts SRAM circular buffers between NMSL and the filter
modules and before the Light Alignment pool so that pairs with
above-average work (repeat-heavy candidate lists) don't stall the whole
datapath.  This bench sweeps the inter-stage buffer capacity on the
tandem-queue simulation of the full pipeline: undersized buffers throttle
throughput well below the NMSL rate; the paper's provisioning recovers
it.
"""

import numpy as np
from conftest import emit
from paper.hw import GenPairXPipelineSim, PipelineSimConfig, \
    sample_workload

from repro.util import format_table

CAPACITIES = (1, 4, 16, 64, 256, 1024, None)


def run_sweep():
    workload = sample_workload(np.random.default_rng(15), 8000)
    reports = {}
    for capacity in CAPACITIES:
        sim = GenPairXPipelineSim(
            PipelineSimConfig().with_buffers(capacity))
        reports[capacity] = sim.simulate(workload)
    return reports


def test_pipeline_balance(benchmark):
    reports = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    best = reports[None].throughput_mpairs_per_s
    rows = []
    for capacity in CAPACITIES:
        report = reports[capacity]
        nmsl = report.stage("NMSL")
        light = report.stage("Light Alignment")
        label = "unbounded" if capacity is None else str(capacity)
        rows.append((label,
                     f"{report.throughput_mpairs_per_s:.1f}",
                     f"{100 * report.throughput_mpairs_per_s / best:.1f}",
                     f"{nmsl.utilization:.2f}",
                     f"{nmsl.blocked_ns / 1e6:.2f}",
                     f"{light.utilization:.2f}"))
    table = format_table(
        ("buffer capacity", "MPair/s", "% of unbounded", "NMSL util",
         "NMSL blocked ms", "light util"), rows,
        title=("§7.2 balancing ablation — circular-buffer capacity "
               "sweep (bursty per-pair workload, Table 3 instance "
               "counts)"))
    emit("pipeline_balance", table)
    assert reports[1].throughput_mpairs_per_s < 0.6 * best
    assert reports[256].throughput_mpairs_per_s > 0.95 * best
    assert reports[1].stage("NMSL").blocked_ns > \
        reports[256].stage("NMSL").blocked_ns
