"""Engine throughput: items/sec per registered engine, one warm facade.

The engine-polymorphic facade serves three engines from one reference +
SeedMap.  This bench maps comparable workloads through each —
``genpair`` and ``mm2`` over the same GIAB-like paired dataset,
``longread`` over HiFi-like long reads of matching total base count —
and records pairs/sec (reads/sec for longread) plus per-engine
provenance counters.  No performance gate: the engines answer different
workloads at very different costs (the mm2 baseline is the *reference*
the paper accelerates away from); the gate here is correctness —
every engine maps every item through one facade, and the throughput
table is the recorded artifact.
"""

from __future__ import annotations

import time

from conftest import emit

from repro.api import Mapper, MappingConfig
from repro.genome import ReadSimulator
from repro.index import MappingIndex
from repro.util import format_table

PAIRS = 200
LONG_READS = 10
LONG_READ_LENGTH = 3000.0


def test_engine_throughput(bench_reference, bench_seedmap, bench_index,
                           bench_datasets):
    pairs = bench_datasets["dataset1"][:PAIRS]
    simulator = ReadSimulator(bench_reference, seed=401)
    long_reads = simulator.simulate_long_reads(
        LONG_READS, length_mean=LONG_READ_LENGTH, length_sd=400.0)

    rows = []
    index = MappingIndex(None, bench_reference, bench_seedmap, bench_index)
    with Mapper(index, MappingConfig(full_fallback=False)) as mapper:
        for engine, items, unit in (("genpair", pairs, "pairs"),
                                    ("mm2", pairs, "pairs"),
                                    ("longread", long_reads, "reads")):
            mapper.engine(engine)  # build outside the timed window
            start = time.perf_counter()
            results = mapper.map(items, engine=engine)
            elapsed = time.perf_counter() - start
            assert len(results) == len(items)
            mapped = sum(1 for result in results if result.mapped)
            rows.append((engine, f"{len(items)} {unit}",
                         f"{len(items) / elapsed:,.1f} {unit}/s",
                         f"{elapsed:.3f}s",
                         f"{100.0 * mapped / len(items):.1f}%"))

    report = format_table(
        ("engine", "workload", "throughput", "elapsed", "mapped"),
        rows, title="Engine throughput (one warm facade)")
    emit("bench_engines", report)
