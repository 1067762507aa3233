"""Paired-Adjacency Filtering: joint candidate filtering for a pair (§4.5).

Both reads of a proper pair land within the fragment length of each other,
so any candidate placement where the two implied read starts are farther
apart than the Δ threshold cannot be a correct joint mapping.  The filter
walks the two *sorted* candidate lists with two pointers — exactly the
comparator-and-two-FIFOs datapath of the hardware module (§5.3) — and
emits every (read1 start, read2 start) pair whose distance is within Δ.

Orientation: in a proper FR placement read 2's (reverse-complemented)
start sits downstream of read 1's start by roughly
``insert_size - read_length``, which is positive and below Δ.  The filter
therefore accepts pairs with ``0 <= start2 - start1 <= delta`` by default;
``allow_dovetail`` relaxes the lower bound slightly for fragments shorter
than the read length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

#: Paper guidance: Δ is dataset-defined, "usually 200 to 500 bp".
DEFAULT_DELTA = 500


@dataclass(frozen=True)
class FilterResult:
    """Joint candidates surviving the paired-adjacency filter.

    ``iterations`` counts comparator steps (one per hardware cycle in the
    Paired-Adjacency Filtering module) and feeds the §7.2 sizing model.
    """

    pairs: Tuple[Tuple[int, int], ...]
    iterations: int

    @property
    def passed(self) -> bool:
        return bool(self.pairs)


def filter_adjacent(candidates1: np.ndarray, candidates2: np.ndarray,
                    delta: int = DEFAULT_DELTA,
                    allow_dovetail: int = 30,
                    max_pairs: int = 64,
                    boundaries: Optional[np.ndarray] = None
                    ) -> FilterResult:
    """Two-pointer sweep over two sorted candidate lists.

    Parameters
    ----------
    candidates1, candidates2:
        Sorted implied read-start positions (global linear coordinates)
        for read 1 and read 2 (in the orientation under test).
    delta:
        Maximum allowed distance between the two starts.
    allow_dovetail:
        How far read 2 may start *before* read 1 and still be accepted
        (overlapping / dovetailing fragments).
    max_pairs:
        Safety cap on emitted joint candidates (the hardware emits into a
        bounded FIFO; extremely repetitive regions would otherwise explode
        quadratically).
    boundaries:
        Sorted linear coordinates at which a candidate changes
        chromosome (the mappers pass
        :meth:`repro.genome.ReferenceGenome.read_boundaries`, which agrees
        with the window the candidate will get).  The linear
        coordinate space concatenates chromosomes, so without this check
        a candidate near the end of one chromosome could pair with one at
        the start of the next (gap ≤ Δ across the boundary) even though
        no real fragment spans two chromosomes.  When given, joint
        candidates whose two positions fall in different chromosomes are
        rejected; ``None`` preserves the raw linear-distance semantics.
    """
    list1 = candidates1.tolist()
    list2 = candidates2.tolist()
    if boundaries is not None:
        chrom1 = np.searchsorted(boundaries, candidates1,
                                 side="right").tolist()
        chrom2 = np.searchsorted(boundaries, candidates2,
                                 side="right").tolist()
    else:
        chrom1 = chrom2 = None
    pairs: List[Tuple[int, int]] = []
    iterations = 0
    i = j = 0
    n1, n2 = len(list1), len(list2)
    while i < n1 and j < n2 and len(pairs) < max_pairs:
        iterations += 1
        pos1 = list1[i]
        pos2 = list2[j]
        gap = pos2 - pos1
        if gap < -allow_dovetail:
            j += 1
        elif gap > delta:
            i += 1
        else:
            # In range: emit, then scan read 2 candidates near this pos1.
            # The element at ``scan == j`` was already compared by the
            # outer step above, so it costs no extra comparator cycle.
            scan = j
            while (scan < n2 and list2[scan] - pos1 <= delta
                   and len(pairs) < max_pairs):
                if scan != j:
                    iterations += 1
                if list2[scan] - pos1 >= -allow_dovetail and (
                        chrom1 is None or chrom1[i] == chrom2[scan]):
                    pairs.append((pos1, list2[scan]))
                scan += 1
            i += 1
    return FilterResult(pairs=tuple(pairs), iterations=iterations)
