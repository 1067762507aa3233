"""Long-read mapping via interleaved pseudo-pairs + Location Voting (§4.7).

A long read is reformulated as a paired-end problem: it is partitioned into
consecutive ``read_length`` chunks, and adjacent chunks form pseudo-pairs
whose separation is below Δ by construction.  Each pseudo-pair runs through
Partitioned Seeding and SeedMap Query — the paired-end front-end itself,
:func:`repro.core.query.resolve_reads`, called once for the chunks of all
the reads of an engine chunk — and Paired-Adjacency Filtering; every
surviving joint candidate implies a start position for the *whole* long
read.  Location Voting (Alser et al., "sparsified genomics") bins those
implied starts and the top-voted bin wins.  Because long reads are noisier,
the final alignment always uses DP (banded), never Light Alignment.
Each read comes out as a one-record
:class:`~repro.genome.results.MappingResult`.

Coordinates: votes are bins of *linear* implied read starts;
:meth:`~repro.genome.ReferenceGenome.window` turns a bin's floor into a
chromosome and a DP window (a bin straddling a chromosome start goes to
the chromosome holding the middle of the read).  Only forward-strand
reads are placed: the chunks are seeded as given, so a reverse-complemented
read gathers no votes and comes out ``unmapped``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..align.banded import align_banded
from ..align.scoring import DEFAULT_SCHEME, ScoringScheme
from ..genome.reference import ReferenceGenome
from ..genome.results import MappingResult
from ..genome.sam import METHOD_DP, AlignmentRecord
from .pairfilter import DEFAULT_DELTA, filter_adjacent
from .query import QueryColumns, resolve_reads
from .seedmap import SeedMap


#: Length of the pieces a long read is cut into; adjacent pieces form a
#: pseudo-pair, seeded like the reads of a pair.
CHUNK_LENGTH = 150
#: Bin width for location voting (collapses nearby implied starts).
VOTE_BIN = 64
#: How many top-voted locations get a DP alignment attempt.
MAX_VOTES_TRIED = 3
#: Half-width of the final DP band, and the window pad either side.
DP_BANDWIDTH = 96


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
                 seedmap: Optional[SeedMap] = None, seed_length: int = 50,
                 delta: int = DEFAULT_DELTA,
                 scheme: ScoringScheme = DEFAULT_SCHEME) -> None:
        """``seed_length`` is the SeedMap's and ``delta`` the
        pseudo-pairs' paired-adjacency distance; the rest are this
        module's constants."""
        self.reference = reference
        self.seed_length = seed_length
        self.delta = delta
        self.scheme = scheme
        self.seedmap = seedmap if seedmap is not None else SeedMap.build(
            reference, seed_length=seed_length)
        self.stats = LongReadStats()
        self._boundaries = reference.read_boundaries(CHUNK_LENGTH)

    def map_read(self, codes: np.ndarray,
                 name: str = "long") -> MappingResult:
        """Map one long read: a chunk of one."""
        return self.map_reads([(codes, name)])[0]

    def map_reads(self, reads: List[Tuple[np.ndarray, str]]
                  ) -> List[MappingResult]:
        """Map a chunk of ``(codes, name)`` long reads in input order.

        The long-read dataflow: every read of the chunk is cut into
        pseudo-pair chunks, all of them are resolved in one
        :func:`~repro.core.query.resolve_reads` call (each chunk once,
        though interior chunks sit in two pseudo-pairs), then each read
        votes over its consecutive results and the top bins get DP.
        A read that gathers no usable vote comes out ``unmapped``.
        """
        chunks: List[np.ndarray] = []
        bounds = [0]
        for codes, _name in reads:
            chunks.extend(self._chunks(codes))
            bounds.append(len(chunks))
        queries = resolve_reads(self.seedmap, chunks, self.seed_length)
        results = []
        for (codes, name), first, last in zip(reads, bounds, bounds[1:]):
            self.stats.reads_total += 1
            best = self._align_top_votes(codes,
                                         self._vote(queries[first:last]))
            if best is None:
                stage = "unmapped"
                record = AlignmentRecord(query_name=name, mapped=False,
                                         read_codes=codes)
            else:
                stage = "mapped"
                alignment, chromosome, position = best
                self.stats.mapped += 1
                record = AlignmentRecord(
                    query_name=name, chromosome=chromosome,
                    position=position, strand="+", mapq=60,
                    cigar=alignment.cigar, score=alignment.score,
                    read_codes=codes, mapped=True, method=METHOD_DP)
            results.append(MappingResult(
                name=name, records=(record,), engine="longread",
                stage=stage, joint_score=record.score))
        return results

    # -- internals ----------------------------------------------------------

    def _chunks(self, codes: np.ndarray) -> List[np.ndarray]:
        """The read's consecutive :data:`CHUNK_LENGTH` pieces; chunk
        ``i`` starts at read offset ``i * CHUNK_LENGTH``."""
        return [codes[start:start + CHUNK_LENGTH] for start
                in range(0, len(codes) - CHUNK_LENGTH + 1, CHUNK_LENGTH)]

    def _vote(self, queries: QueryColumns) -> Counter:
        """Location Voting over one read's pseudo-pairs.

        ``queries`` are the resolved chunks of the read, in order;
        consecutive ones form the pseudo-pairs.
        """
        votes: Counter = Counter()
        candidates, bounds = queries.candidates, queries.bounds.tolist()
        for index in range(len(queries) - 1):
            self.stats.pseudo_pairs += 1
            filtered = filter_adjacent(
                candidates[bounds[index]:bounds[index + 1]],
                candidates[bounds[index + 1]:bounds[index + 2]],
                delta=self.delta, boundaries=self._boundaries)
            offset = index * CHUNK_LENGTH
            for cand1, _cand2 in filtered.pairs:
                votes[(cand1 - offset) // VOTE_BIN] += 1
        return votes

    def _align_top_votes(self, codes: np.ndarray, votes: Counter):
        best = None
        for bin_index, _count in votes.most_common(MAX_VOTES_TRIED):
            hit = self._dp_at(codes, bin_index * VOTE_BIN)
            if hit is None:
                continue
            if best is None or hit[0].score > best[0].score:
                best = hit
        return best

    def _dp_at(self, codes: np.ndarray, candidate: int):
        found = self.reference.window(candidate, len(codes), DP_BANDWIDTH,
                                      DP_BANDWIDTH, min_length=len(codes) // 2)
        if found is None:
            return None
        window, chromosome, start, offset = found
        result = align_banded(codes, window, scheme=self.scheme,
                              diagonal=offset, bandwidth=DP_BANDWIDTH)
        self.stats.dp_cells += result.cells
        if result.score <= 0:
            return None
        return result, chromosome, start + result.ref_start
