"""Long-read mapping via interleaved pseudo-pairs + Location Voting (§4.7).

A long read is reformulated as a paired-end problem: it is partitioned into
consecutive ``read_length`` chunks, and adjacent chunks form pseudo-pairs
whose separation is below Δ by construction.  Each pseudo-pair runs through
Partitioned Seeding, SeedMap Query and Paired-Adjacency Filtering; every
surviving joint candidate implies a start position for the *whole* long
read.  Location Voting (Alser et al., "sparsified genomics") bins those
implied starts and the top-voted bin wins.  Because long reads are noisier,
the final alignment always uses DP (banded), never Light Alignment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..align.banded import align_banded
from ..align.scoring import DEFAULT_SCHEME, ScoringScheme
from ..genome.reference import ReferenceError, ReferenceGenome
from ..genome.sam import METHOD_DP, AlignmentRecord
from .pairfilter import filter_adjacent
from .query import query_read
from .seedmap import SeedMap
from .seeding import partition_read


@dataclass(frozen=True)
class LongReadConfig:
    """Parameters of the long-read mode."""

    chunk_length: int = 150
    seed_length: int = 50
    seeds_per_chunk: int = 3
    delta: int = 500
    #: Bin width for location voting (collapses nearby implied starts).
    vote_bin: int = 64
    #: How many top-voted locations get a DP alignment attempt.
    max_votes_tried: int = 3
    #: Vote threshold: bins with fewer votes than this never get a DP
    #: attempt (1 keeps the historical behaviour of trying any bin).
    min_votes: int = 1
    dp_bandwidth: int = 96


@dataclass
class LongReadStats:
    """Aggregate telemetry for the long-read pipeline."""

    reads_total: int = 0
    mapped: int = 0
    pseudo_pairs: int = 0
    dp_cells: int = 0


class LongReadMapper:
    """Maps long reads with the GenPair front-end plus DP finishing."""

    def __init__(self, reference: ReferenceGenome,
                 seedmap: Optional[SeedMap] = None,
                 config: Optional[LongReadConfig] = None,
                 scheme: ScoringScheme = DEFAULT_SCHEME) -> None:
        config = config if config is not None else LongReadConfig()
        self.reference = reference
        self.config = config
        self.scheme = scheme
        self.seedmap = seedmap if seedmap is not None else SeedMap.build(
            reference, seed_length=config.seed_length)
        self.stats = LongReadStats()
        self._chromosome_starts = reference.linear_starts()

    def map_read(self, codes: np.ndarray,
                 name: str = "long") -> AlignmentRecord:
        """Map one long read; returns an unmapped record on failure."""
        self.stats.reads_total += 1
        votes = self._vote(codes)
        if not votes:
            return AlignmentRecord(query_name=name, mapped=False,
                                   read_codes=codes)
        best = self._align_top_votes(codes, votes)
        if best is None:
            return AlignmentRecord(query_name=name, mapped=False,
                                   read_codes=codes)
        alignment, chromosome, position = best
        self.stats.mapped += 1
        return AlignmentRecord(query_name=name, chromosome=chromosome,
                               position=position, strand="+", mapq=60,
                               cigar=alignment.cigar,
                               score=alignment.score, read_codes=codes,
                               mapped=True, method=METHOD_DP)

    def map_reads(self, reads: List[Tuple[np.ndarray, str]]
                  ) -> List[AlignmentRecord]:
        """Map a chunk of ``(codes, name)`` long reads in input order.

        The batched entry point the engine-polymorphic API streams
        chunks through; statistics accumulate in :attr:`stats` exactly
        as repeated :meth:`map_read` calls would.
        """
        return [self.map_read(codes, name) for codes, name in reads]

    # -- internals ----------------------------------------------------------

    def _chunks(self, codes: np.ndarray) -> List[Tuple[int, np.ndarray]]:
        length = self.config.chunk_length
        return [(start, codes[start:start + length])
                for start in range(0, len(codes) - length + 1, length)]

    def _vote(self, codes: np.ndarray) -> Counter:
        """Location Voting over all pseudo-pairs of the read."""
        config = self.config
        chunks = self._chunks(codes)
        votes: Counter = Counter()
        for (off1, chunk1), (off2, chunk2) in zip(chunks, chunks[1:]):
            self.stats.pseudo_pairs += 1
            seeds1 = partition_read(chunk1, config.seed_length,
                                    config.seeds_per_chunk)
            seeds2 = partition_read(chunk2, config.seed_length,
                                    config.seeds_per_chunk)
            result1 = query_read(self.seedmap, seeds1)
            result2 = query_read(self.seedmap, seeds2)
            filtered = filter_adjacent(result1.candidates,
                                       result2.candidates,
                                       delta=config.delta,
                                       boundaries=self._chromosome_starts)
            for cand1, _cand2 in filtered.pairs:
                implied_start = cand1 - off1
                votes[implied_start // config.vote_bin] += 1
        return votes

    def _align_top_votes(self, codes: np.ndarray, votes: Counter):
        config = self.config
        best = None
        for bin_index, count in votes.most_common(config.max_votes_tried):
            if count < config.min_votes:
                break  # most_common is descending; the rest are lower
            start_linear = bin_index * config.vote_bin
            hit = self._dp_at(codes, start_linear)
            if hit is None:
                continue
            if best is None or hit[0].score > best[0].score:
                best = hit
        return best

    def _dp_at(self, codes: np.ndarray, candidate: int):
        pad = config_pad = self.config.dp_bandwidth
        try:
            chromosome, pos = self.reference.from_linear(
                max(0, int(candidate)))
        except ReferenceError:
            return None
        chrom_len = self.reference.length(chromosome)
        start = max(0, pos - pad)
        end = min(chrom_len, pos + len(codes) + config_pad)
        if end - start < len(codes) // 2:
            return None
        window = self.reference.fetch(chromosome, start, end)
        result = align_banded(codes, window, scheme=self.scheme,
                              diagonal=pos - start,
                              bandwidth=self.config.dp_bandwidth)
        self.stats.dp_cells += result.cells
        if result.score <= 0:
            return None
        return result, chromosome, start + result.ref_start
