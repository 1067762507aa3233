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

Construction is one xxHash per reference position
(:func:`repro.hashing.hash_reference_windows`) and one
:meth:`repro.hashing.PositionTable.build`, which groups equal hashes so
each seed's locations are contiguous and sorted.  The grouping, the
filter and the probe live in that table — the one the baseline's
:class:`~repro.mapper.index.MinimizerIndex` owns too; SeedMap adds what
is GenPair's: which windows are hashed, the build fingerprint and the
modeled byte sizes.  A whole *batch* of seed hashes resolves in one
vectorized :meth:`SeedMap.query_batch` call, mirroring the hardware,
where the Seed Table is a flat sorted structure streamed by NMSL rather
than a pointer-chasing dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..genome.reference import ReferenceGenome
from ..hashing import (DEFAULT_SEED_LENGTH, PositionTable,
                       hash_reference_windows)

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

    A thin owner of one :class:`~repro.hashing.PositionTable`: its
    ``keys`` / ``starts`` / ``ends`` are the Seed Table, its
    ``positions`` column the Location Table.
    """

    def __init__(self, seed_length: int, table: PositionTable,
                 stats: SeedMapStats,
                 filter_threshold: Optional[int] = DEFAULT_FILTER_THRESHOLD,
                 step: int = 1) -> None:
        self.seed_length = seed_length
        self._table = table
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
        hash_chunks = [np.zeros(0, dtype=np.uint64)]
        position_chunks = [np.zeros(0, dtype=np.int64)]
        for name in reference.names:
            codes = reference.fetch(name, 0, reference.length(name))
            hashes = hash_reference_windows(codes, seed_length, step=step)
            hash_chunks.append(hashes)
            position_chunks.append(
                np.arange(len(hashes), dtype=np.int64) * step
                + reference.linear_offset(name))
        hashes = np.concatenate(hash_chunks)
        table, dropped = PositionTable.build(
            hashes, np.concatenate(position_chunks),
            max_count=filter_threshold)
        stats = SeedMapStats(
            total_positions=hashes.size,
            distinct_seeds=len(table),
            stored_locations=table.positions.size,
            filtered_seeds=dropped.size,
            filtered_locations=int(dropped.sum()),
            max_locations=int((table.ends - table.starts).max(initial=0)),
        )
        return cls(seed_length, table, stats,
                   filter_threshold=filter_threshold, step=step)

    # -- querying --------------------------------------------------------

    def query(self, seed_hash: int) -> np.ndarray:
        """Sorted reference locations of one seed hash (a view; may be empty).

        This is the §4.4 lookup: one Seed Table access resolving to one
        contiguous, already-sorted Location Table range.
        """
        return self._table.lookup(seed_hash)

    def query_batch(self, seed_hashes: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve a whole batch of seed hashes in one vectorized probe.

        Returns ``(starts, ends)`` — for each input hash, the ``[start,
        end)`` span of its locations in :attr:`location_table`; absent
        hashes get an empty span (``start == end == 0``).  One probe of
        the sorted key array replaces one dict probe per seed, which is
        what lets the batched pipeline resolve every seed of every pair
        in a chunk at once.
        """
        return self._table.spans(seed_hashes)

    @property
    def location_table(self) -> np.ndarray:
        """The flat Location Table (global linear coordinates)."""
        return self._table.positions

    def table_arrays(self) -> "dict":
        """The four backing arrays, keyed by their serialized names.

        This is the persistence contract used by :mod:`repro.index`: a
        SeedMap is exactly these arrays plus ``seed_length`` and
        :attr:`stats`, so writing them to disk and handing memory-mapped
        views back to the constructor reconstructs an identical index
        without touching the FASTA.
        """
        return {"hash_keys": self._table.keys,
                "range_starts": self._table.starts,
                "range_ends": self._table.ends,
                "locations": self._table.positions}

    def __contains__(self, seed_hash: int) -> bool:
        # A stored key always has at least one location.
        return self.location_count(seed_hash) > 0

    def location_count(self, seed_hash: int) -> int:
        """Number of stored locations for a seed hash (0 if absent)."""
        return self._table.lookup(seed_hash).size

    def iter_ranges(self):
        """Yield ``(hash, start, end)`` for every Seed Table entry."""
        table = self._table
        return zip(table.keys.tolist(), table.starts.tolist(),
                   table.ends.tolist())

    @property
    def memory_bytes(self) -> int:
        """Modeled total footprint (Seed Table + Location Table)."""
        return self.stats.seed_table_bytes + self.stats.location_table_bytes
