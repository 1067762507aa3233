"""Persistent index workflow: build once, memory-map and stream forever.

Simulates a dataset to disk, builds the SeedMap into a persistent
``.rpix`` index, then serves a mapping run the production way — the
index is opened with ``np.memmap`` (milliseconds, no FASTA rebuild),
the paired FASTQ files stream through the pipeline in O(batch) memory,
and the SAM file is written incrementally.

Run:  python examples/persistent_index.py
"""

import time

import numpy as np

from repro.core import GenPairPipeline, GenPairConfig, SeedMap
from repro.genome import (ErrorModel, ReadSimulator, SamWriter,
                          generate_reference, iter_pairs, write_fasta,
                          write_fastq)
from repro.index import inspect_index, open_index, save_index


def main() -> None:
    rng = np.random.default_rng(42)

    print("1. Simulating a 150kb reference and 400 read pairs ...")
    reference = generate_reference(rng, (100_000, 50_000))
    simulator = ReadSimulator(reference,
                              error_model=ErrorModel.giab_like(), seed=7)
    pairs = simulator.simulate_pairs(400)
    write_fasta("pindex_ref.fa", reference)
    write_fastq("pindex_1.fq",
                ((p.read1.name, p.read1.codes) for p in pairs))
    write_fastq("pindex_2.fq",
                ((p.read2.name, p.read2.codes) for p in pairs))

    print("2. Building the SeedMap and saving the persistent index ...")
    start = time.perf_counter()
    seedmap = SeedMap.build(reference)
    build_s = time.perf_counter() - start
    total = save_index("pindex.rpix", seedmap, reference)
    print(f"   built in {build_s * 1e3:.0f} ms, "
          f"wrote pindex.rpix ({total:,} bytes)")

    print("3. Opening the index (np.memmap, checksums verified) ...")
    start = time.perf_counter()
    index = open_index("pindex.rpix")
    open_s = time.perf_counter() - start
    print(f"   opened in {open_s * 1e3:.1f} ms "
          f"({100 * open_s / build_s:.1f}% of the build) — fingerprint: "
          f"seed length {index.seed_length}, "
          f"filter threshold {index.filter_threshold}")

    print("4. Streaming the FASTQ pair through the mapped index ...")
    config = GenPairConfig(seed_length=index.seed_length,
                           filter_threshold=index.filter_threshold)
    pipeline = GenPairPipeline(index.reference, seedmap=index.seedmap,
                               config=config)
    with SamWriter("pindex.sam", reference=index.reference) as writer:
        for result in pipeline.map_stream(
                iter_pairs("pindex_1.fq", "pindex_2.fq"),
                chunk_size=128):
            writer.write_result(result)
    stats = pipeline.stats
    print(f"   mapped {stats.pairs_total} pairs -> {writer.count} "
          f"records (light-aligned {stats.light_aligned_pct:.1f}%)")

    print("5. Index contents:")
    for row in inspect_index("pindex.rpix")["arrays"]:
        print(f"   {row['name']:<13} {row['count']:>9,} entries  "
              f"{row['bytes']:>11,} bytes")


if __name__ == "__main__":
    main()
