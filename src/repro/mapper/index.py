"""Minimizer index over a reference genome (baseline mapper's index).

Maps each minimizer hash to the sorted global positions where it occurs.
Like Minimap2, hashes occurring more often than ``max_occurrences`` are
masked out of the index (the same heuristic family as GenPair's index
filtering threshold, §5.2).

The table is a :class:`repro.hashing.PositionTable` — the one SeedMap
owns too — built from the reference's minimizer columns, so every
minimizer of a chunk of reads resolves in one probe
(:meth:`MinimizerIndex.lookup_all`).  The dict-of-lists build it
replaced is the oracle in ``tests/oracles/align.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..genome.reference import ReferenceGenome
from ..hashing import PositionTable
from .minimizer import extract_minimizers


@dataclass(frozen=True)
class IndexStats:
    """Build statistics of a minimizer index."""

    total_minimizers: int
    distinct_hashes: int
    masked_hashes: int


class MinimizerIndex:
    """Hash -> sorted global positions of that minimizer."""

    def __init__(self, k: int, w: int, table: PositionTable,
                 stats: IndexStats) -> None:
        self.k = k
        self.w = w
        self._table = table
        self.stats = stats

    @classmethod
    def build(cls, reference: ReferenceGenome, k: int = 15, w: int = 10,
              max_occurrences: Optional[int] = 500) -> "MinimizerIndex":
        """Build the index across all chromosomes."""
        position_columns = [np.zeros(0, dtype=np.int64)]
        hash_columns = [np.zeros(0, dtype=np.uint64)]
        for name in reference.names:
            codes = reference.fetch(name, 0, reference.length(name))
            positions, hashes = extract_minimizers(codes, k, w)
            position_columns.append(positions
                                    + reference.linear_offset(name))
            hash_columns.append(hashes)
        hashes = np.concatenate(hash_columns)
        table, masked = PositionTable.build(
            hashes, np.concatenate(position_columns),
            max_count=max_occurrences)
        stats = IndexStats(total_minimizers=hashes.size,
                           distinct_hashes=len(table),
                           masked_hashes=masked.size)
        return cls(k, w, table, stats)

    def lookup(self, hash_value: int) -> np.ndarray:
        """Sorted global positions for a hash (empty array if absent),
        as a read-only view of the index's own column."""
        return self._table.lookup(hash_value)

    def lookup_all(self, hashes: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Every occurrence of every hash, in one probe: the ``(which,
        positions)`` columns of :meth:`PositionTable.gather`."""
        return self._table.gather(hashes)

    def __len__(self) -> int:
        return len(self._table)
