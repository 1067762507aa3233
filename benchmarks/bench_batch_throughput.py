"""Chunked mapping throughput: pairs/sec by chunk size.

The pipeline (``GenPairPipeline.map_pairs``) hashes every seed of a
chunk with one vectorized xxHash call, resolves them against the
array-backed Seed Table in one ``searchsorted`` probe, and merges
candidates chunk-wide — the software analogue of the paper's
burst-oriented dataflow (§4.2–§4.5), where per-seed pointer chasing is
replaced by streaming, contiguous accesses.  This bench sweeps the
chunk size on

* a *clean* dataset (error-free reads, repeat-free reference) that
  isolates the seed-to-candidate work the chunk vectorizes, and
* a *giab* dataset (repeat-rich reference, realistic error model) where
  per-pair alignment work dominates,

and gates the metrics overhead.  The absolute guard on the vectorized
seeding is the repo benchmark's ``clean_batch`` ``pairs_per_s`` bound
(``perf/``); equivalence with the scalar oracle is asserted in
``tests/core/test_dataflow_oracle.py``.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import emit

from repro.core import GenPairPipeline, SeedMap
from repro.genome import ErrorModel, ReadSimulator, generate_reference
from repro.obs import set_metrics_enabled
from repro.util import format_table

CLEAN_PAIRS = 1000
BATCH_SIZES = (32, 256, 1024)


def _throughput(reference, seedmap, pairs, runner,
                repeats: int = 3) -> float:
    """Best-of-``repeats`` pairs/sec of ``runner(pipeline, pairs)``."""
    best = float("inf")
    for _ in range(repeats):
        pipeline = GenPairPipeline(reference, seedmap=seedmap)
        start = time.perf_counter()
        runner(pipeline, pairs)
        best = min(best, time.perf_counter() - start)
    return len(pairs) / best


def test_batch_throughput(bench_reference, bench_seedmap, bench_datasets):
    clean_reference = generate_reference(np.random.default_rng(41),
                                         (80_000,), repeats=None)
    clean_seedmap = SeedMap.build(clean_reference)
    clean_simulator = ReadSimulator(clean_reference,
                                    error_model=ErrorModel.perfect(),
                                    seed=43)
    clean_pairs = clean_simulator.simulate_pairs(CLEAN_PAIRS)
    giab_pairs = bench_datasets["dataset1"]

    worlds = {
        "clean": (clean_reference, clean_seedmap, clean_pairs),
        "giab": (bench_reference, bench_seedmap, giab_pairs),
    }
    rows = []
    for label, (reference, seedmap, pairs) in worlds.items():
        for batch in BATCH_SIZES:
            rate = _throughput(
                reference, seedmap, pairs,
                lambda p, d, b=batch: p.map_pairs(d, chunk_size=b))
            rows.append((label, "chunked", str(batch), f"{rate:,.0f}"))

    # Observability overhead gate: metrics are recorded once per chunk
    # (never per pair), so the instrumented hot path must stay within
    # 3% of the uninstrumented one on the seed-bound workload.
    reference, seedmap, pairs = worlds["clean"]
    previous = set_metrics_enabled(False)
    try:
        baseline = _throughput(
            reference, seedmap, pairs,
            lambda p, d: p.map_pairs(d, chunk_size=256), repeats=5)
        set_metrics_enabled(True)
        instrumented = _throughput(
            reference, seedmap, pairs,
            lambda p, d: p.map_pairs(d, chunk_size=256), repeats=5)
    finally:
        set_metrics_enabled(previous)
    overhead = instrumented / baseline
    rows.append(("clean", "metrics off", "256", f"{baseline:,.0f}"))
    rows.append(("clean", f"metrics on ({overhead:.2f}x)", "256",
                 f"{instrumented:,.0f}"))

    emit("batch_throughput", format_table(
        ("dataset", "run", "chunk", "pairs/s"), rows,
        title="Chunked mapping throughput by chunk size"))

    # Metrics-enabled mapping must stay within 3% of uninstrumented.
    assert overhead >= 0.97
