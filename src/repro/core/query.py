"""SeedMap Query: resolve seed hashes to candidate read-start positions (§4.4).

For each seed the Location Table returns the sorted reference locations of
that 50bp window.  Subtracting the seed's offset within the read converts
each hit into an *implied read start*, so that hits from the first, middle
and last seed of one read land on the same coordinate when they agree.  The
three per-seed sorted lists are merged into one sorted candidate array —
the contiguous layout plus this merge is what the paper's NMSL exploits for
bursty, sequential memory traffic.

The query also carries the memory-traffic accounting the hardware model
consumes: each seed lookup costs one Seed Table access plus a burst read of
its location range.

:func:`resolve_reads` is the one seed→candidate front-end under ``src/``:
the GenPair pipeline (the four role sequences of every pair of a chunk),
the long-read mode (the pseudo-pair chunks of every read of a chunk) and
the Observation-2 profiler all hand it a list of reads, and it answers
with one :class:`QueryColumns`: the reads' candidates in one flat array
with per-read bounds, their counters as columns.  The per-seed scalar
chain it replaced is the test oracle (``tests/oracles/core.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..genome.sequence import ALPHABET_SIZE, window_view
from ..hashing import hash_reads_batch
from .seedmap import LOCATION_ENTRY_BYTES, SEED_TABLE_ENTRY_BYTES, SeedMap
from .seeding import SEEDS_PER_READ, seed_offsets

#: :func:`query_hash_groups` keys read ``g``'s implied starts ``g *
#: _SPAN + start``; a start lies within ``±_HALF`` of the reference.
_SPAN, _HALF = 2 ** 40, 2 ** 39


@dataclass(frozen=True)
class QueryResult:
    """Candidate read-start positions for one read (sorted, deduplicated).

    ``seed_hits`` records how many seeds had at least one location (a read
    with zero hits across all its seeds cannot be placed by GenPair and
    falls back to the traditional pipeline, Fig 10's 2.09% arc).
    """

    candidates: np.ndarray
    seed_hits: int
    locations_fetched: int
    seed_table_accesses: int

    @property
    def traffic_bytes(self) -> int:
        """Modeled memory traffic of this query (Seed + Location Tables)."""
        return (self.seed_table_accesses * SEED_TABLE_ENTRY_BYTES
                + self.locations_fetched * LOCATION_ENTRY_BYTES)


@dataclass(frozen=True)
class QueryColumns:
    """The query results of a list of reads, as columns: read ``g``'s
    candidates are ``candidates[bounds[g]:bounds[g + 1]]``, its counters
    entry ``g`` of the int64 columns.  Indexing or iterating builds
    :class:`QueryResult` rows; a slice (step 1) shares ``candidates``.
    """

    candidates: np.ndarray
    bounds: np.ndarray
    seed_hits: np.ndarray
    locations_fetched: np.ndarray
    seed_table_accesses: np.ndarray

    traffic_bytes = QueryResult.traffic_bytes  # one entry per read

    def __len__(self) -> int:
        return len(self.seed_hits)

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                raise ValueError("QueryColumns slices take step 1")
            stop = max(start, stop)
            return QueryColumns(self.candidates,
                                self.bounds[start:stop + 1],
                                self.seed_hits[start:stop],
                                self.locations_fetched[start:stop],
                                self.seed_table_accesses[start:stop])
        key = range(len(self))[key]
        return QueryResult(
            candidates=self.candidates[
                self.bounds[key]:self.bounds[key + 1]],
            seed_hits=int(self.seed_hits[key]),
            locations_fetched=int(self.locations_fetched[key]),
            seed_table_accesses=int(self.seed_table_accesses[key]))


def query_hash_groups(seedmap: SeedMap, hashes: np.ndarray,
                      offsets: np.ndarray, groups: np.ndarray,
                      group_count: int,
                      group_sizes: Sequence[int]) -> QueryColumns:
    """Resolve many reads' seeds in one vectorized SeedMap probe.

    All seed hashes are resolved with a single
    :meth:`SeedMap.query_batch` call; the location gather, the
    implied-read-start conversion and the per-read sorted-unique merge
    run as whole-batch numpy operations.  Returns the
    :class:`QueryColumns` of the ``group_count`` reads, row for row
    identical to looking each seed up with :meth:`SeedMap.query` and
    merging each read's hits with ``np.unique`` (the scalar reference in
    ``tests/oracles/core.py``).

    ``hashes`` / ``offsets`` / ``groups`` are parallel per-seed arrays,
    in any order; ``groups[i]`` assigns seed ``i`` to one of
    ``group_count`` reads and ``group_sizes[g]`` is the number of seeds
    queried for group ``g`` (its Seed Table access count, even when a
    seed resolves to nothing).
    """
    starts, ends = seedmap.query_batch(hashes)
    counts = ends - starts
    fetched = np.bincount(groups, counts, group_count).astype(np.int64)
    hits = np.bincount(groups[counts > 0], minlength=group_count)
    # Every location of every seed in one flat array (seed i gives
    # counts[i] consecutive ones), keyed ``group * _SPAN + implied
    # start``: one sort orders the reads and each read's starts.
    at = (starts - np.add.accumulate(counts) + counts).repeat(counts)
    at += np.arange(at.size)
    keys = (groups * _SPAN - offsets).repeat(counts)
    keys += seedmap.location_table[at]
    keys.sort()
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    # The key below every start of read g is g * _SPAN - _HALF.
    bounds = keys.searchsorted(np.arange(-_HALF, group_count * _SPAN,
                                         _SPAN))
    candidates = ((keys + _HALF) & (_SPAN - 1)) - _HALF
    return QueryColumns(candidates, bounds, hits, fetched,
                        np.asarray(group_sizes, dtype=np.int64))


@lru_cache(maxsize=64)
def _read_offsets(length: int, seed_length: int,
                  seeds_per_read: int) -> np.ndarray:
    """:func:`~repro.core.seeding.seed_offsets` as a read-only array,
    kept per read length."""
    offsets = np.array(seed_offsets(length, seed_length, seeds_per_read),
                       dtype=np.int64)
    offsets.flags.writeable = False
    return offsets


def resolve_reads(seedmap: SeedMap, reads: Sequence[np.ndarray],
                  seed_length: int,
                  seeds_per_read: int = SEEDS_PER_READ
                  ) -> QueryColumns:
    """Partitioned Seeding + SeedMap Query for a whole list of reads.

    The reads' seed windows (:func:`~repro.core.seeding.seed_offsets`)
    are sliced out of one concatenated code buffer, hashed with a single
    vectorized call, and resolved with one batched SeedMap probe; returns
    their :class:`QueryColumns`, one row per read in input order.  A
    read shorter than one seed contributes no seed (no Seed Table access
    is charged), and so does a seed window holding an ambiguous base
    (``N``): it cannot be an exact 2-bit match, so the read keeps its
    other seeds.
    """
    count = len(reads)
    lengths = np.fromiter(map(len, reads), np.int64, count)
    # Each seed's read and offset, grouped by read length: the reads of
    # one length and their seeds are a (reads, seeds) grid.
    distinct = set(lengths.tolist())
    pieces = [(np.zeros(0, dtype=np.int64),) * 2]  # no reads, no seeds
    for length in distinct:
        offsets = _read_offsets(length, seed_length, seeds_per_read)
        members = (np.arange(count) if len(distinct) == 1
                   else (lengths == length).nonzero()[0])
        grid = np.empty((members.size, offsets.size), dtype=np.int64)
        grid[:] = offsets
        pieces.append((members.repeat(offsets.size), grid.ravel()))
    # At most one length: its piece (or the empty one); else them all.
    groups, flat_offsets = (pieces[-1] if len(distinct) < 2 else
                            map(np.concatenate, zip(*pieces)))
    hashes = np.zeros(0, dtype=np.uint64)
    if flat_offsets.size:
        codes = np.concatenate(reads)
        windows = window_view(codes, seed_length)[
            (lengths.cumsum() - lengths)[groups] + flat_offsets]
        try:
            hashes = hash_reads_batch(windows)
        except ValueError:
            # hash_reads_batch's own scan found an ambiguous base, so
            # an N-free chunk pays no extra pass for this guard.
            concrete = (windows < ALPHABET_SIZE).all(axis=1)
            flat_offsets = flat_offsets[concrete]
            groups = groups[concrete]
            hashes = hash_reads_batch(windows[concrete])
    return query_hash_groups(seedmap, hashes, flat_offsets, groups,
                             count, np.bincount(groups, minlength=count))
