"""Partitioned Seeding: where the six seeds of a read-pair sit (§4.3).

Each read contributes three non-overlapping ``seed_length`` seeds — its
first, middle, and last window (Observation 1: in ~86% of pairs at least one
seed per read is an exact reference match).  A seed's offset in the read
converts a reference hit into an implied *read start position*, which is
what paired-adjacency filtering compares.  This module holds the geometry
only — :func:`seed_offsets` and the role contract
:func:`pair_role_codes`; slicing, hashing and querying the windows is
:func:`repro.core.query.resolve_reads`.

Paired-end orientation: in an FR library the two reads face each other, so
to place both on the forward reference strand the pipeline seeds read 1
as-is and read 2 reverse-complemented (and symmetrically for the opposite
fragment orientation, which the pipeline tries second).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..genome.sequence import reverse_complement


def seed_offsets(length: int, seed_length: int = 50,
                 seeds_per_read: int = 3) -> List[int]:
    """Read offsets of the first / middle / last seed windows.

    Reads shorter than one seed yield no offsets (they always fall back
    to DP).
    """
    if seed_length <= 0:
        raise ValueError("seed_length must be positive")
    if length < seed_length:
        return []
    count = min(seeds_per_read, length // seed_length)
    if count == 1:
        return [0]
    span = length - seed_length
    return [round(i * span / (count - 1)) for i in range(count)]


def pair_role_codes(read1_codes: np.ndarray, read2_codes: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray]:
    """The four seeded sequences of a pair, in canonical role order.

    Role order is the contract shared by the pipeline's chunk seeding
    and its scalar test oracle: ``(fr read1, fr read2, rf read1, rf
    read2)`` — i.e. ``(read1, revcomp(read2), read2, revcomp(read1))``.
    """
    return (read1_codes, reverse_complement(read2_codes),
            read2_codes, reverse_complement(read1_codes))
