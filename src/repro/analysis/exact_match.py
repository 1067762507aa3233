"""Exact-match profiling: §3.2 rates and Observations 1-2.

Reproduces the paper's motivation measurements:

* the fraction of single-end reads that match the reference exactly over
  their full length (paper: 55.7%), and the fraction of pairs where *both*
  reads do (paper: 36.8%) — the drop that motivates partitioned seeding;
* Observation 1: the fraction of pairs where at least one non-overlapping
  50bp seed per read matches exactly (paper: 84.9-86.2%);
* Observation 2: the mean number of reference locations per 50bp seed
  (paper: 9.3-9.6), measured through a SeedMap.

Full-read and per-seed exactness are checked against the read's ground-
truth locus (simulated reads carry it), which avoids indexing 150-mers;
a read with sequencing errors matching *elsewhere* exactly is vanishingly
rare, so this matches the index-based definition in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.query import resolve_reads
from ..core.seeding import seed_offsets
from ..core.seedmap import SeedMap
from ..genome.reference import ReferenceGenome
from ..genome.sequence import reverse_complement
from ..genome.simulate import SimulatedPair, SimulatedRead


@dataclass(frozen=True)
class ExactMatchReport:
    """Results of exact-match profiling over one dataset."""

    reads_total: int
    reads_exact: int
    pairs_total: int
    pairs_exact: int
    pairs_with_seed_per_read: int

    @property
    def single_end_exact_pct(self) -> float:
        """% of reads exactly matching the reference (paper: 55.7%)."""
        return 100.0 * self.reads_exact / max(1, self.reads_total)

    @property
    def paired_end_exact_pct(self) -> float:
        """% of pairs where both reads match exactly (paper: 36.8%)."""
        return 100.0 * self.pairs_exact / max(1, self.pairs_total)

    @property
    def seed_per_read_pct(self) -> float:
        """Observation 1: >=1 exact seed in each read (paper: ~86%)."""
        return 100.0 * self.pairs_with_seed_per_read / max(
            1, self.pairs_total)


def _read_is_exact(reference: ReferenceGenome, codes: np.ndarray,
                   chromosome: str, start: int, slack: int = 8) -> bool:
    """Does the read match the reference exactly near its true start?"""
    chrom_len = reference.length(chromosome)
    length = len(codes)
    for offset in range(-slack, slack + 1):
        pos = start + offset
        if pos < 0 or pos + length > chrom_len:
            continue
        window = reference.fetch(chromosome, pos, pos + length)
        if np.array_equal(window, codes):
            return True
    return False


def _has_exact_seed(reference: ReferenceGenome, codes: np.ndarray,
                    chromosome: str, start: int, seed_length: int,
                    slack: int = 8) -> bool:
    """Observation 1 predicate: any of the three seeds exactly matches
    (bases compared at the truth locus; nothing is hashed)."""
    return any(_read_is_exact(reference, codes[offset:offset + seed_length],
                              chromosome, start + offset, slack)
               for offset in seed_offsets(len(codes), seed_length))


def profile_exact_matches(reference: ReferenceGenome,
                          pairs: Sequence[SimulatedPair],
                          seed_length: int = 50) -> ExactMatchReport:
    """Profile full-read and per-seed exact-match rates over pairs."""
    reads_exact = 0
    pairs_exact = 0
    pairs_with_seed = 0
    for pair in pairs:
        read1 = pair.read1
        read2 = pair.read2
        r1_exact = _read_is_exact(reference, read1.codes,
                                  read1.chromosome, read1.ref_start)
        r2_codes = reverse_complement(read2.codes)
        r2_exact = _read_is_exact(reference, r2_codes, read2.chromosome,
                                  read2.ref_start)
        reads_exact += int(r1_exact) + int(r2_exact)
        if r1_exact and r2_exact:
            pairs_exact += 1
        seed1 = _has_exact_seed(reference, read1.codes, read1.chromosome,
                                read1.ref_start, seed_length)
        seed2 = _has_exact_seed(reference, r2_codes, read2.chromosome,
                                read2.ref_start, seed_length)
        if seed1 and seed2:
            pairs_with_seed += 1
    return ExactMatchReport(reads_total=2 * len(pairs),
                            reads_exact=reads_exact,
                            pairs_total=len(pairs),
                            pairs_exact=pairs_exact,
                            pairs_with_seed_per_read=pairs_with_seed)


@dataclass(frozen=True)
class SeedLocationReport:
    """Observation 2: reference locations per queried seed."""

    seeds_queried: int
    seeds_hit: int
    locations_total: int

    @property
    def mean_locations_per_seed(self) -> float:
        """Mean over seeds with at least one hit (paper: 9.3-9.6)."""
        return self.locations_total / max(1, self.seeds_hit)


def profile_seed_locations(seedmap: SeedMap,
                           reads: Sequence[SimulatedRead],
                           seed_length: Optional[int] = None
                           ) -> SeedLocationReport:
    """Measure per-seed location counts through a SeedMap.

    The three numbers are the mapping front-end's own accounting
    (:func:`~repro.core.query.resolve_reads`): Seed Table accesses,
    seeds with a hit, locations fetched.
    """
    seed_length = seed_length or seedmap.seed_length
    results = resolve_reads(seedmap, [read.codes for read in reads],
                            seed_length)
    return SeedLocationReport(
        seeds_queried=sum(r.seed_table_accesses for r in results),
        seeds_hit=sum(r.seed_hits for r in results),
        locations_total=sum(r.locations_fetched for r in results))
