"""FastHASH-style intra-read adjacency filtering (Xin et al., 2013).

The single-read ancestor of Paired-Adjacency Filtering (§4.5 credits
FastHASH directly): consecutive seeds *within one read* must map to
adjacent reference positions.  A candidate read-start position is kept
only if it is supported by at least ``min_support`` seeds whose hits
agree on it (within a small slack for indels).

Included as a related-work baseline: the Fig-10-style comparison shows
how much weaker within-read adjacency is than the paired version for
paired-end data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.seeding import seed_offsets
from ..core.seedmap import SeedMap
from ..hashing import hash_reads_batch


@dataclass(frozen=True)
class AdjacencyResult:
    """Candidates surviving intra-read adjacency filtering."""

    candidates: Tuple[int, ...]
    support: Tuple[int, ...]

    @property
    def passed(self) -> bool:
        return bool(self.candidates)


def adjacency_filter(seedmap: SeedMap, codes: np.ndarray,
                     seed_length: Optional[int] = None,
                     min_support: int = 2,
                     slack: int = 5) -> AdjacencyResult:
    """Keep read-start candidates supported by >= ``min_support`` seeds.

    Each seed hit of the read ``codes`` implies a read start (location
    - seed offset); hits from different seeds that agree within
    ``slack`` bases support each other, exactly FastHASH's adjacency
    criterion.  Support counts every hit, so this needs the per-seed,
    un-deduplicated location lists (:meth:`SeedMap.query`), not the
    merged candidates of :func:`repro.core.query.resolve_reads`.
    """
    seed_length = seed_length or seedmap.seed_length
    offsets = seed_offsets(len(codes), seed_length)
    implied: List[np.ndarray] = []
    if offsets:
        windows = np.stack([codes[offset:offset + seed_length]
                            for offset in offsets])
        for offset, hash_value in zip(offsets,
                                      hash_reads_batch(windows).tolist()):
            locations = seedmap.query(hash_value)
            if locations.size:
                implied.append(locations - offset)
    if not implied:
        return AdjacencyResult((), ())
    merged = np.sort(np.concatenate(implied))
    candidates: List[int] = []
    support: List[int] = []
    index = 0
    total = len(merged)
    while index < total:
        anchor = merged[index]
        end = index
        while end < total and merged[end] - anchor <= slack:
            end += 1
        count = end - index
        if count >= min_support:
            candidates.append(int(anchor))
            support.append(count)
        index = end
    return AdjacencyResult(tuple(candidates), tuple(support))
