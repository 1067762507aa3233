"""The hash -> sorted positions table under both reference indexes.

GenPair's SeedMap (§4.2: a Seed Table of sorted hashes over one
contiguous Location Table) and the baseline's minimizer index are one
structure: sorted distinct ``keys``, key ``i`` occurring at the sorted
``positions[starts[i]:ends[i]]``.  A whole batch of hashes resolves in
one ``np.searchsorted``; hashes occurring more than ``max_count`` times
are left out at build time (§5.2's index filtering threshold, minimap2's
occurrence mask).

``starts`` and ``ends`` stay two arrays — two views of one offsets array
when built, the two memory-mapped sections of an ``.rpix`` file when
opened — so the file format (:mod:`repro.index`) does not depend on
this class.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def ragged_ranges(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``counts[i]`` consecutive items for each owner ``i``, flattened:
    ``(owner, within)`` — whose every item is, and its rank there."""
    owner = np.repeat(np.arange(counts.size), counts)
    within = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
    return owner, within


class PositionTable:
    """Sorted distinct ``keys``; key ``i`` occurs at
    ``positions[starts[i]:ends[i]]``, sorted."""

    def __init__(self, keys: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray, positions: np.ndarray) -> None:
        self.keys = np.asarray(keys, dtype=np.uint64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)
        self.positions = positions
        # ``lookup`` hands out views of this column.
        self.positions.setflags(write=False)

    @classmethod
    def build(cls, hashes: np.ndarray, positions: np.ndarray,
              max_count: Optional[int] = None
              ) -> Tuple["PositionTable", np.ndarray]:
        """Group parallel ``hashes`` / ``positions`` columns by hash.

        Returns the table and the sizes of the groups it left out: those
        of more than ``max_count`` positions (``None`` keeps every one).
        """
        hashes = np.asarray(hashes, dtype=np.uint64)
        positions = np.asarray(positions, dtype=np.int64)
        order = np.lexsort((positions, hashes))
        hashes = hashes[order]
        first = np.ones(hashes.size, dtype=bool)
        first[1:] = hashes[1:] != hashes[:-1]
        first = np.flatnonzero(first)
        sizes = np.diff(first, append=hashes.size)
        keep = sizes <= (hashes.size if max_count is None else max_count)
        offsets = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
        np.cumsum(sizes[keep], out=offsets[1:])
        table = cls(hashes[first[keep]], offsets[:-1], offsets[1:],
                    positions[order][np.repeat(keep, sizes)])
        return table, sizes[~keep]

    def spans(self, hashes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``[start, end)`` of each hash in :attr:`positions`, in one
        probe; an absent (or left-out) hash gets ``start == end == 0``."""
        hashes = np.asarray(hashes, dtype=np.uint64)
        if not self.keys.size:
            return (np.zeros(hashes.shape, dtype=np.int64),
                    np.zeros(hashes.shape, dtype=np.int64))
        slot = np.minimum(np.searchsorted(self.keys, hashes),
                          self.keys.size - 1)
        found = self.keys[slot] == hashes
        return (np.where(found, self.starts[slot], 0),
                np.where(found, self.ends[slot], 0))

    def gather(self, hashes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every occurrence of every hash: ``(which, positions)`` where
        ``which[i]`` is the index into ``hashes`` of the hash that
        ``positions[i]`` is an occurrence of, hash by hash and
        position-sorted within one."""
        starts, ends = self.spans(hashes)
        which, within = ragged_ranges(ends - starts)
        return which, self.positions[starts[which] + within]

    def lookup(self, key: int) -> np.ndarray:
        """Sorted positions of one key, as a read-only view of
        :attr:`positions`; empty when the key is absent — which any
        integer outside ``[0, 2**64)`` is, rather than an error."""
        key = int(key)
        if not 0 <= key < 1 << 64:
            return self.positions[:0]
        starts, ends = self.spans(np.array([key], dtype=np.uint64))
        return self.positions[starts[0]:ends[0]]

    def __len__(self) -> int:
        return self.keys.size
