"""Quickstart: map simulated paired-end reads with GenPair.

Builds a small synthetic reference, simulates GIAB-like 2x150bp read
pairs, maps them with the GenPair pipeline (SeedMap -> partitioned
seeding -> paired-adjacency filtering -> light alignment), and writes the
alignments to a SAM file in a fresh temporary directory.

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import GenPairPipeline, SeedMap
from repro.genome import (ErrorModel, ReadSimulator, generate_reference,
                          write_sam)


def main() -> None:
    rng = np.random.default_rng(42)

    print("1. Generating a 300kb synthetic reference genome ...")
    reference = generate_reference(rng, (200_000, 100_000))

    print("2. Building SeedMap (50bp seeds, filter threshold 500) ...")
    seedmap = SeedMap.build(reference)
    stats = seedmap.stats
    print(f"   {stats.total_positions:,} positions indexed, "
          f"{stats.distinct_seeds:,} distinct seeds, "
          f"{seedmap.memory_bytes / 1e6:.1f} MB modeled footprint")

    print("3. Simulating 500 GIAB-like read pairs ...")
    simulator = ReadSimulator(reference,
                              error_model=ErrorModel.giab_like(),
                              seed=7)
    pairs = simulator.simulate_pairs(500)

    print("4. Mapping with the GenPair pipeline ...")
    pipeline = GenPairPipeline(reference, seedmap=seedmap)
    results = pipeline.map_pairs(pairs)

    pstats = pipeline.stats
    print(f"   light-aligned: {pstats.light_aligned_pct:.1f}% of pairs")
    print(f"   DP fallback at candidates: "
          f"{pstats.light_fallback_pct:.1f}%")
    print(f"   mapped by GenPair overall: "
          f"{pstats.genpair_mapped_pct:.1f}%")

    correct = sum(
        1 for pair, result in zip(pairs, results)
        if result.mapped and result.record1.chromosome ==
        pair.read1.chromosome
        and abs(result.record1.position - pair.read1.ref_start) <= 30)
    mapped = sum(1 for result in results if result.mapped)
    print(f"   correct placements: {correct}/{mapped} mapped pairs")

    print("5. First three alignments:")
    for result in results[:3]:
        record = result.record1
        print(f"   {record.query_name}: {record.chromosome}:"
              f"{record.position} {record.strand} {record.cigar} "
              f"score={record.score} via {record.method}")

    records = []
    for result in results:
        records.extend([result.record1, result.record2])
    out = Path(tempfile.mkdtemp(prefix="repro_quickstart_")) / "output.sam"
    count = write_sam(out, records, reference=reference)
    print(f"6. Wrote {count} records to {out}")


if __name__ == "__main__":
    main()
