"""Persistent index workflow: build once, memory-map and stream forever.

Simulates a dataset to disk, builds its index and saves it as a
``.rpix`` file, then serves a mapping run the production way — the
index is opened with ``np.memmap`` (milliseconds, no FASTA rebuild),
the paired FASTQ files stream through the pipeline in O(batch) memory,
and the SAM file is written incrementally — all in a fresh temporary
directory.

Run:  python examples/persistent_index.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import GenPairPipeline, GenPairConfig
from repro.genome import (ErrorModel, ReadSimulator, SamWriter,
                          generate_reference, iter_pairs, write_fasta,
                          write_fastq)
from repro.index import build_index, inspect_index, open_index, save_index


def main() -> None:
    rng = np.random.default_rng(42)
    out_dir = Path(tempfile.mkdtemp(prefix="repro_pindex_"))
    ref_fa, reads1, reads2 = (out_dir / name for name in (
        "pindex_ref.fa", "pindex_1.fq", "pindex_2.fq"))
    index_path, sam_path = out_dir / "pindex.rpix", out_dir / "pindex.sam"

    print("1. Simulating a 150kb reference and 400 read pairs ...")
    reference = generate_reference(rng, (100_000, 50_000))
    simulator = ReadSimulator(reference,
                              error_model=ErrorModel.giab_like(), seed=7)
    pairs = simulator.simulate_pairs(400)
    write_fasta(ref_fa, reference)
    write_fastq(reads1, ((p.read1.name, p.read1.codes) for p in pairs))
    write_fastq(reads2, ((p.read2.name, p.read2.codes) for p in pairs))

    print("2. Building the SeedMap + minimizer index and saving them ...")
    start = time.perf_counter()
    built = build_index(reference)
    build_s = time.perf_counter() - start
    total = save_index(index_path, built)
    print(f"   built in {build_s * 1e3:.0f} ms, "
          f"wrote {index_path} ({total:,} bytes)")

    print("3. Opening the index (np.memmap, checksums verified) ...")
    start = time.perf_counter()
    index = open_index(index_path)
    open_s = time.perf_counter() - start
    print(f"   opened in {open_s * 1e3:.1f} ms "
          f"({100 * open_s / build_s:.1f}% of the build) — fingerprint: "
          f"{index.fingerprint.describe()}")

    print("4. Streaming the FASTQ pair through the mapped index ...")
    config = GenPairConfig(seed_length=index.seedmap.seed_length,
                           filter_threshold=index.seedmap.filter_threshold)
    pipeline = GenPairPipeline(index.reference, seedmap=index.seedmap,
                               config=config)
    with SamWriter(sam_path, reference=index.reference) as writer:
        for result in pipeline.map_stream(iter_pairs(reads1, reads2),
                                          chunk_size=128):
            writer.write_result(result)
    stats = pipeline.stats
    print(f"   mapped {stats.pairs_total} pairs -> {writer.count} "
          f"records (light-aligned {stats.light_aligned_pct:.1f}%)")

    print("5. Index contents:")
    for row in inspect_index(index_path)["arrays"]:
        print(f"   {row['name']:<22} {row['count']:>9,} entries  "
              f"{row['bytes']:>11,} bytes")


if __name__ == "__main__":
    main()
