"""Fig 9: SeedMap-query throughput — CPU vs GPU vs NMSL.

Paper: NMSL reaches 192.7 MPair/s; 2.12x over a GPU CUDA kernel on the
same HBM2 (warp divergence + cache hierarchy), 4.58x over a multithreaded
CPU implementation; 16.1x / 26.8x better per-area / per-Watt than GPU.
"""

import numpy as np
from conftest import emit
from paper.hw import (CPU_NMSL_EFFICIENCY, FIG9_CPU_ENVELOPE,
                      FIG9_GPU_ENVELOPE, FIG9_NMSL_ENVELOPE,
                      GPU_NMSL_EFFICIENCY, HBM2, MemoryConfig, NMSLConfig,
                      NMSLSimulator, synthetic_location_counts)

from repro.util import format_table

#: 12-channel DDR5 of a current server CPU (the paper's "maximum
#: bandwidth for DDR" software configuration).
CPU_DDR5_12CH = MemoryConfig(name="DDR5-CPU", channels=12,
                             channel_bandwidth_gbps=44.8,
                             random_access_ns=37.0,
                             channel_power_mw=3200.0)


def run_platforms():
    counts = synthetic_location_counts(np.random.default_rng(33), 10_000)
    nmsl = NMSLSimulator(NMSLConfig(memory=HBM2)).simulate(counts)
    gpu_raw = NMSLSimulator(NMSLConfig(memory=HBM2)).simulate(counts)
    cpu_raw = NMSLSimulator(NMSLConfig(memory=CPU_DDR5_12CH)).simulate(
        counts)
    platforms = {
        "CPU": (cpu_raw.throughput_mpairs_per_s * CPU_NMSL_EFFICIENCY,
                FIG9_CPU_ENVELOPE),
        "GPU": (gpu_raw.throughput_mpairs_per_s * GPU_NMSL_EFFICIENCY,
                FIG9_GPU_ENVELOPE),
        "NMSL": (nmsl.throughput_mpairs_per_s, FIG9_NMSL_ENVELOPE),
    }
    return platforms


def test_fig09_nmsl(benchmark):
    platforms = benchmark.pedantic(run_platforms, rounds=1, iterations=1)
    paper = {"CPU": 42.1, "GPU": 90.9, "NMSL": 192.7}
    rows = []
    for name in ("CPU", "GPU", "NMSL"):
        rate, (area, power) = platforms[name]
        rows.append((name, f"{paper[name]:.1f}", f"{rate:.1f}",
                     f"{rate / area:.3f}", f"{rate / power:.2f}"))
    table = format_table(
        ("platform", "paper MPair/s", "measured MPair/s", "MPair/s/mm2",
         "MPair/s/W"), rows,
        title=("Fig 9 — SeedMap query throughput (paper ratios: NMSL "
               "2.12x GPU, 4.58x CPU)"))
    emit("fig09_nmsl", table)
    nmsl_rate = platforms["NMSL"][0]
    gpu_rate = platforms["GPU"][0]
    cpu_rate = platforms["CPU"][0]
    assert 1.8 < nmsl_rate / gpu_rate < 2.5      # paper: 2.12x
    assert 3.5 < nmsl_rate / cpu_rate < 6.0      # paper: 4.58x
    # Efficiency ordering (Fig 9 right panels).
    per_watt = {name: rate / env[1]
                for name, (rate, env) in platforms.items()}
    assert per_watt["NMSL"] > per_watt["GPU"] > per_watt["CPU"] * 0.9
