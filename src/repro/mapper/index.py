"""Minimizer index over a reference genome (baseline mapper's index).

Maps each minimizer hash to the sorted global positions where it occurs.
Like Minimap2, hashes occurring more often than ``max_occurrences`` are
masked out of the index (the same heuristic family as GenPair's index
filtering threshold, §5.2).

The table is CSR: sorted unique ``hashes``, ``offsets`` into one
``positions`` column, built with one stable argsort over the reference's
minimizer columns — so every minimizer of a chunk of reads resolves in
one ``np.searchsorted`` (:meth:`MinimizerIndex.lookup_all`).  The
dict-of-lists build it replaced is the oracle in
``tests/oracles/align.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..genome.reference import ReferenceGenome
from .minimizer import extract_minimizers, ragged_ranges


@dataclass(frozen=True)
class IndexStats:
    """Build statistics of a minimizer index."""

    total_minimizers: int
    distinct_hashes: int
    masked_hashes: int


class MinimizerIndex:
    """Hash -> sorted global positions of that minimizer."""

    def __init__(self, k: int, w: int, hashes: np.ndarray,
                 offsets: np.ndarray, positions: np.ndarray,
                 stats: IndexStats) -> None:
        self.k = k
        self.w = w
        #: Sorted distinct hashes; hash ``i`` occurs at
        #: ``positions[offsets[i]:offsets[i + 1]]``, sorted.
        self._hashes = hashes
        self._offsets = offsets
        self._positions = positions
        # ``lookup`` hands out views of this column.
        self._positions.setflags(write=False)
        self.stats = stats

    @classmethod
    def build(cls, reference: ReferenceGenome, k: int = 15, w: int = 10,
              max_occurrences: Optional[int] = 500) -> "MinimizerIndex":
        """Build the index across all chromosomes."""
        columns = []
        for name in reference.names:
            codes = reference.fetch(name, 0, reference.length(name))
            positions, hashes = extract_minimizers(codes, k, w)
            columns.append((positions + reference.linear_offset(name),
                            hashes))
        positions = np.concatenate([column[0] for column in columns]
                                   or [np.zeros(0, dtype=np.int64)])
        hashes = np.concatenate([column[1] for column in columns]
                                or [np.zeros(0, dtype=np.uint64)])
        # Stable: chromosomes come in linear order and a chromosome's
        # minimizers in position order, so each hash's run stays sorted.
        order = np.argsort(hashes, kind="stable")
        distinct, counts = np.unique(hashes[order], return_counts=True)
        keep = np.ones(distinct.size, dtype=bool)
        if max_occurrences is not None:
            keep = counts <= max_occurrences
        kept = int(keep.sum())
        offsets = np.zeros(kept + 1, dtype=np.int64)
        np.cumsum(counts[keep], out=offsets[1:])
        stats = IndexStats(total_minimizers=int(hashes.size),
                           distinct_hashes=kept,
                           masked_hashes=keep.size - kept)
        return cls(k, w, distinct[keep], offsets,
                   positions[order][np.repeat(keep, counts)], stats)

    def lookup(self, hash_value: int) -> np.ndarray:
        """Sorted global positions for a hash (empty array if absent),
        as a read-only view of the index's own column."""
        starts, ends = self._spans(np.array([hash_value], dtype=np.uint64))
        return self._positions[starts[0]:ends[0]]

    def lookup_all(self, hashes: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Every occurrence of every hash, in one probe: ``(which,
        positions)`` where ``which[i]`` is the index into ``hashes`` of
        the hash that ``positions[i]`` is an occurrence of, hash by hash
        and position-sorted within one."""
        starts, ends = self._spans(np.asarray(hashes, dtype=np.uint64))
        which, within = ragged_ranges(ends - starts)
        return which, self._positions[starts[which] + within]

    def _spans(self, hashes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``[start, end)`` of each hash in the positions column; an
        absent (or masked) hash gets an empty span."""
        if not self._hashes.size:
            empty = np.zeros(hashes.size, dtype=np.int64)
            return empty, empty
        found = np.minimum(np.searchsorted(self._hashes, hashes),
                           self._hashes.size - 1)
        present = self._hashes[found] == hashes
        return (np.where(present, self._offsets[found], 0),
                np.where(present, self._offsets[found + 1], 0))

    def __len__(self) -> int:
        return int(self._hashes.size)
