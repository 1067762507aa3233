"""Streaming through the persistent worker pool: fork once, map forever.

Simulates a dataset to disk, then serves it two ways through the
``Mapper`` facade — in-process, and through the persistent worker-pool
streaming executor (``workers=N``): one long-lived pool of forked
workers is fed chunk by chunk with double-buffered dispatch while a
read-ahead thread keeps the FASTQ reader ahead of the workers, and an
ordered-merge collector hands chunks to the SAM writer in input order
while later chunks are still being mapped.  The two SAM files are
byte-identical.

Run:  python examples/streaming_workers.py
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import Mapper, MappingConfig
from repro.genome import (ErrorModel, ReadSimulator, generate_reference,
                          write_fasta, write_fastq)

#: At least two workers so the persistent pool really runs (on a
#: single-CPU box it demonstrates correctness, not speedup).
WORKERS = max(2, min(4, os.cpu_count() or 1))


def main() -> None:
    out_dir = Path(tempfile.mkdtemp(prefix="repro_stream_"))
    reads1, reads2 = out_dir / "stream_1.fq", out_dir / "stream_2.fq"
    solo_sam, pool_sam = (out_dir / "stream_solo.sam",
                          out_dir / "stream_pool.sam")
    rng = np.random.default_rng(99)

    print("1. Simulating a 150kb reference and 600 read pairs ...")
    reference = generate_reference(rng, (100_000, 50_000))
    simulator = ReadSimulator(reference,
                              error_model=ErrorModel.giab_like(),
                              seed=13)
    pairs = simulator.simulate_pairs(600)
    write_fasta(out_dir / "stream_ref.fa", reference)
    write_fastq(reads1, ((p.read1.name, p.read1.codes) for p in pairs))
    write_fastq(reads2, ((p.read2.name, p.read2.codes) for p in pairs))
    print(f"   files under {out_dir}")

    print("2. Streaming in-process (workers=1) ...")
    with Mapper.from_reference(reference, batch_size=64,
                               full_fallback=False) as solo:
        start = time.perf_counter()
        solo.write(solo.map_file(reads1, reads2), solo_sam, format="sam")
        solo_s = time.perf_counter() - start
    solo_stats = solo.last_stats
    print(f"   {solo_stats.pairs_total} pairs in {solo_s:.2f}s "
          f"({solo_stats.pairs_total / solo_s:,.0f} pairs/s)")

    print(f"3. Streaming through a persistent pool of {WORKERS} "
          "forked workers ...")
    config = MappingConfig(batch_size=64, workers=WORKERS,
                           full_fallback=False)
    with Mapper(reference, solo.seedmap, config=config) as pooled:
        start = time.perf_counter()
        pooled.write(pooled.map_file(reads1, reads2), pool_sam,
                     format="sam")
        pool_s = time.perf_counter() - start
    pool_stats = pooled.last_stats
    print(f"   {pool_stats.pairs_total} pairs in {pool_s:.2f}s "
          f"({pool_stats.pairs_total / pool_s:,.0f} pairs/s) — "
          "pool forked once, chunks merged in input order")

    identical = solo_sam.read_bytes() == pool_sam.read_bytes()
    print(f"4. SAM outputs byte-identical: {identical}")
    assert identical
    assert solo_stats == pool_stats
    print(f"   stats identical too (light-aligned "
          f"{pool_stats.light_aligned_pct:.1f}%)")


if __name__ == "__main__":
    main()
