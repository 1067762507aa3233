"""SeedMap: the offline hash index over reference seeds (§4.2).

SeedMap is a two-table structure:

* the **Location Table** — all reference locations of all seeds, laid out
  so that the locations of one seed are contiguous (enabling the burst
  transfers NMSL relies on);
* the **Seed Table** — maps a seed's 32-bit xxHash to the ``[start, end)``
  range of its locations in the Location Table.

The functional model stores locations as *global linear coordinates* (see
:meth:`repro.genome.ReferenceGenome.linear_offset`), exactly the flattened
``(chromosome, offset)`` pairs of Fig 4.  Seeds whose location count
exceeds the **index filtering threshold** are dropped at build time (§5.2;
default 500, matching both the paper and Minimap2's heuristic), which also
bounds the hardware FIFO depth.

Construction is fully vectorized: one xxHash per reference position via
:func:`repro.hashing.xxhash32_rows`, then a single argsort groups equal
hashes so each seed's locations are contiguous and sorted.

The Seed Table itself is array-backed — three parallel arrays (sorted
hash keys, range starts, range ends) — so a single lookup is one
``np.searchsorted`` probe and, crucially, a whole *batch* of seed hashes
resolves in one vectorized :meth:`SeedMap.query_batch` call.  This
mirrors the hardware, where the Seed Table is a flat sorted structure
streamed by NMSL rather than a pointer-chasing dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..genome.reference import ReferenceGenome
from ..hashing import DEFAULT_SEED_LENGTH, hash_reference_windows

#: Paper default for the index filtering threshold (§5.2, §7.8).
DEFAULT_FILTER_THRESHOLD = 500

#: Modeled size of one Seed Table entry: 32-bit hash key + 32-bit offset.
SEED_TABLE_ENTRY_BYTES = 8

#: Modeled size of one Location Table entry: chromosome id + offset packed
#: into 5 bytes (the paper's layout stores (chromosome, offset) pairs).
LOCATION_ENTRY_BYTES = 5


@dataclass(frozen=True)
class SeedMapStats:
    """Build-time statistics (feed Observation 2 and the hardware model)."""

    total_positions: int
    distinct_seeds: int
    stored_locations: int
    filtered_seeds: int
    filtered_locations: int
    max_locations: int

    @property
    def mean_locations_per_seed(self) -> float:
        """Average stored locations per distinct stored seed."""
        if self.distinct_seeds == 0:
            return 0.0
        return self.stored_locations / self.distinct_seeds

    @property
    def seed_table_bytes(self) -> int:
        return self.distinct_seeds * SEED_TABLE_ENTRY_BYTES

    @property
    def location_table_bytes(self) -> int:
        return self.stored_locations * LOCATION_ENTRY_BYTES


class SeedMap:
    """Hash index from 50bp seeds to sorted reference locations.

    The Seed Table is stored as three parallel arrays: ``hash_keys``
    (ascending, distinct), ``range_starts`` and ``range_ends`` (the
    ``[start, end)`` Location Table span of each key).
    """

    def __init__(self, seed_length: int, locations: np.ndarray,
                 hash_keys: np.ndarray, range_starts: np.ndarray,
                 range_ends: np.ndarray, stats: SeedMapStats,
                 filter_threshold: Optional[int] = DEFAULT_FILTER_THRESHOLD,
                 step: int = 1) -> None:
        self.seed_length = seed_length
        self._locations = locations
        self._hash_keys = np.asarray(hash_keys, dtype=np.uint64)
        self._range_starts = np.asarray(range_starts, dtype=np.int64)
        self._range_ends = np.asarray(range_ends, dtype=np.int64)
        self.stats = stats
        #: Build fingerprint: the configuration this index answers for.
        #: Persisted by :mod:`repro.index` and validated on open so a
        #: stale index cannot silently serve a reconfigured pipeline.
        self.filter_threshold = filter_threshold
        self.step = step

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, reference: ReferenceGenome,
              seed_length: int = DEFAULT_SEED_LENGTH,
              filter_threshold: Optional[int] = DEFAULT_FILTER_THRESHOLD,
              step: int = 1) -> "SeedMap":
        """Build SeedMap from a reference genome.

        Parameters
        ----------
        seed_length:
            Seed size in bases (the paper fixes 50).
        filter_threshold:
            Seeds with more reference locations than this are dropped
            entirely; ``None`` disables filtering (the "no filter"
            configuration of Table 7).
        step:
            Stride between indexed reference positions.  The hardware
            indexes every position (stride 1); larger strides trade recall
            for index size and are exposed for experimentation.
        """
        hash_chunks = []
        position_chunks = []
        for name in reference.names:
            codes = reference.fetch(name, 0, reference.length(name))
            if len(codes) < seed_length:
                continue
            hashes = hash_reference_windows(codes, seed_length, step=step)
            starts = (np.arange(len(hashes), dtype=np.int64) * step
                      + reference.linear_offset(name))
            hash_chunks.append(hashes)
            position_chunks.append(starts)
        if not hash_chunks:
            empty_stats = SeedMapStats(0, 0, 0, 0, 0, 0)
            return cls(seed_length, np.zeros(0, dtype=np.int64),
                       np.zeros(0, dtype=np.uint64),
                       np.zeros(0, dtype=np.int64),
                       np.zeros(0, dtype=np.int64), empty_stats,
                       filter_threshold=filter_threshold, step=step)
        all_hashes = np.concatenate(hash_chunks)
        all_positions = np.concatenate(position_chunks)
        order = np.lexsort((all_positions, all_hashes))
        sorted_hashes = all_hashes[order]
        sorted_positions = all_positions[order]
        # Group boundaries: one group per distinct hash value.
        boundaries = np.flatnonzero(
            np.diff(sorted_hashes) != 0) + 1
        group_starts = np.concatenate(([0], boundaries))
        group_ends = np.concatenate((boundaries, [len(sorted_hashes)]))
        group_sizes = group_ends - group_starts

        keep = np.ones(len(group_starts), dtype=bool)
        if filter_threshold is not None:
            keep = group_sizes <= filter_threshold
        filtered_seeds = int(np.count_nonzero(~keep))
        filtered_locations = int(group_sizes[~keep].sum())

        kept_sizes = group_sizes[keep]
        hash_keys = sorted_hashes[group_starts[keep]]
        range_ends = np.cumsum(kept_sizes, dtype=np.int64)
        range_starts = range_ends - kept_sizes
        locations = sorted_positions[np.repeat(keep, group_sizes)]
        stats = SeedMapStats(
            total_positions=len(all_hashes),
            distinct_seeds=int(hash_keys.size),
            stored_locations=int(locations.size),
            filtered_seeds=filtered_seeds,
            filtered_locations=filtered_locations,
            max_locations=int(kept_sizes.max()) if keep.any() else 0,
        )
        return cls(seed_length, locations, hash_keys, range_starts,
                   range_ends, stats, filter_threshold=filter_threshold,
                   step=step)

    # -- querying --------------------------------------------------------

    def _find(self, seed_hash: int) -> int:
        """Seed Table index of a hash, or -1 when absent."""
        keys = self._hash_keys
        if keys.size == 0:
            return -1
        value = int(seed_hash)
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            return -1
        index = int(np.searchsorted(keys, np.uint64(value)))
        if index < keys.size and int(keys[index]) == value:
            return index
        return -1

    def query(self, seed_hash: int) -> np.ndarray:
        """Sorted reference locations of one seed hash (a view; may be empty).

        This is the §4.4 lookup: one Seed Table access resolving to one
        contiguous, already-sorted Location Table range.
        """
        index = self._find(seed_hash)
        if index < 0:
            return self._locations[:0]
        return self._locations[self._range_starts[index]:
                               self._range_ends[index]]

    def query_batch(self, seed_hashes: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve a whole batch of seed hashes in one vectorized probe.

        Returns ``(starts, ends)`` — for each input hash, the ``[start,
        end)`` span of its locations in :attr:`location_table`; absent
        hashes get an empty span (``start == end == 0``).  One
        ``np.searchsorted`` over the sorted key array replaces one dict
        probe per seed, which is what lets the batched pipeline resolve
        every seed of every pair in a chunk at once.
        """
        seed_hashes = np.asarray(seed_hashes, dtype=np.uint64)
        keys = self._hash_keys
        if keys.size == 0 or seed_hashes.size == 0:
            zeros = np.zeros(seed_hashes.shape, dtype=np.int64)
            return zeros, zeros.copy()
        index = np.searchsorted(keys, seed_hashes)
        clipped = np.minimum(index, keys.size - 1)
        found = keys[clipped] == seed_hashes
        starts = np.where(found, self._range_starts[clipped], 0)
        ends = np.where(found, self._range_ends[clipped], 0)
        return starts, ends

    @property
    def location_table(self) -> np.ndarray:
        """The flat Location Table (global linear coordinates)."""
        return self._locations

    def table_arrays(self) -> "dict":
        """The four backing arrays, keyed by their serialized names.

        This is the persistence contract used by :mod:`repro.index`: a
        SeedMap is exactly these arrays plus ``seed_length`` and
        :attr:`stats`, so writing them to disk and handing memory-mapped
        views back to the constructor reconstructs an identical index
        without touching the FASTA.
        """
        return {"hash_keys": self._hash_keys,
                "range_starts": self._range_starts,
                "range_ends": self._range_ends,
                "locations": self._locations}

    def __contains__(self, seed_hash: int) -> bool:
        return self._find(seed_hash) >= 0

    def location_count(self, seed_hash: int) -> int:
        """Number of stored locations for a seed hash (0 if absent)."""
        index = self._find(seed_hash)
        if index < 0:
            return 0
        return int(self._range_ends[index] - self._range_starts[index])

    def iter_ranges(self):
        """Yield ``(hash, start, end)`` for every Seed Table entry."""
        for index in range(self._hash_keys.size):
            yield (int(self._hash_keys[index]),
                   int(self._range_starts[index]),
                   int(self._range_ends[index]))

    @property
    def memory_bytes(self) -> int:
        """Modeled total footprint (Seed Table + Location Table)."""
        return self.stats.seed_table_bytes + self.stats.location_table_bytes
