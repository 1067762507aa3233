"""Fig 8: NMSL sliding-window sweep — throughput, FIFO depth, SRAM.

Paper: throughput saturates with window size (window 1024 reaches 91.8%
of the no-window asymptote); the required FIFO depth grows with the
window; the centralized-buffer SRAM grows linearly, reaching 11.93 MB at
window 1024.
"""

import numpy as np
from conftest import emit
from paper.hw import NMSLConfig, NMSLSimulator, synthetic_location_counts

from repro.util import format_table

WINDOWS = (1, 4, 16, 64, 256, 1024, 4096, None)


def run_sweep():
    counts = synthetic_location_counts(np.random.default_rng(31), 12_000)
    reports = {}
    dram_reports = {}
    for window in WINDOWS:
        reports[window] = NMSLSimulator(
            NMSLConfig(window_size=window)).simulate(counts)
        dram_reports[window] = NMSLSimulator(
            NMSLConfig(window_size=window, dram_timing=True)).simulate(
                counts)
    return reports, dram_reports


def test_fig08_window_sweep(benchmark):
    reports, dram_reports = benchmark.pedantic(run_sweep, rounds=1,
                                               iterations=1)
    asymptote = reports[None].throughput_mpairs_per_s
    dram_asymptote = dram_reports[None].throughput_mpairs_per_s
    rows = []
    for window in WINDOWS:
        report = reports[window]
        dram = dram_reports[window]
        label = "No Window" if window is None else str(window)
        rows.append((label,
                     f"{report.throughput_mpairs_per_s:.1f}",
                     f"{report.bandwidth_gbps:.1f}",
                     report.max_channel_queue_depth,
                     f"{report.centralized_buffer.size_mb:.2f}",
                     f"{100 * report.throughput_mpairs_per_s / asymptote:.1f}",
                     f"{100 * dram.throughput_mpairs_per_s / dram_asymptote:.1f}"))
    table = format_table(
        ("window", "MPair/s", "GB/s", "max FIFO depth", "buffer MB",
         "% of asymptote", "% (bank-level DRAM)"), rows,
        title=("Fig 8 — NMSL window sweep (paper: window 1024 -> 91.8% "
               "of asymptote, 11.93 MB SRAM); last column uses the "
               "dispersed bank-level timing model"))
    emit("fig08_window_sweep", table)
    # Shape checks.
    tput = [reports[w].throughput_mpairs_per_s for w in (1, 16, 1024)]
    assert tput[0] < tput[1] < tput[2] * 1.01
    assert reports[1024].throughput_mpairs_per_s >= 0.9 * asymptote
    assert reports[4].max_channel_queue_depth <= \
        reports[1024].max_channel_queue_depth <= \
        reports[None].max_channel_queue_depth
    assert 11.0 < reports[1024].centralized_buffer.size_mb < 12.5
