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
the Observation-2 profiler all hand it a list of reads.  The per-seed
scalar chain it replaced is the test oracle (``tests/oracles/core.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..genome.sequence import ALPHABET_SIZE
from ..hashing import hash_reads_batch, ragged_ranges
from .seedmap import LOCATION_ENTRY_BYTES, SEED_TABLE_ENTRY_BYTES, SeedMap
from .seeding import seed_offsets


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


def query_hash_groups(seedmap: SeedMap, hashes: np.ndarray,
                      offsets: np.ndarray, groups: np.ndarray,
                      group_count: int,
                      group_sizes: Sequence[int]) -> List[QueryResult]:
    """Resolve many reads' seeds in one vectorized SeedMap probe.

    All seed hashes are resolved with a single
    :meth:`SeedMap.query_batch` call; the location gather, the
    implied-read-start conversion and the per-read sorted-unique merge
    run as whole-batch numpy operations.  Returns one
    :class:`QueryResult` per group, element-wise identical to looking
    each seed up with :meth:`SeedMap.query` and merging each read's
    hits with ``np.unique`` (the scalar reference in
    ``tests/oracles/core.py``).

    ``hashes`` / ``offsets`` / ``groups`` are parallel per-seed arrays;
    ``groups[i]`` assigns seed ``i`` to one of ``group_count`` reads and
    ``group_sizes[g]`` is the number of seeds queried for group ``g``
    (its Seed Table access count, even when a seed resolves to nothing).
    """
    empty = np.zeros(0, dtype=np.int64)
    per_group = [empty] * group_count
    fetched = np.zeros(group_count, dtype=np.int64)
    hits = np.zeros(group_count, dtype=np.int64)
    if hashes.size:
        starts, ends = seedmap.query_batch(hashes)
        counts = ends - starts
        np.add.at(fetched, groups, counts)
        np.add.at(hits, groups, (counts > 0).astype(np.int64))
        total = int(counts.sum())
        if total:
            # Gather every location of every seed into one flat array:
            # seed i contributes counts[i] consecutive elements.
            seed_index, within = ragged_ranges(counts)
            flat = seedmap.location_table[starts[seed_index] + within]
            candidates = flat - offsets[seed_index]
            flat_groups = groups[seed_index]
            order = np.lexsort((candidates, flat_groups))
            sorted_groups = flat_groups[order]
            sorted_candidates = candidates[order]
            keep = np.ones(sorted_candidates.size, dtype=bool)
            keep[1:] = ((sorted_groups[1:] != sorted_groups[:-1])
                        | (sorted_candidates[1:] != sorted_candidates[:-1]))
            sorted_groups = sorted_groups[keep]
            sorted_candidates = sorted_candidates[keep]
            bounds = np.searchsorted(sorted_groups,
                                     np.arange(group_count + 1))
            per_group = [sorted_candidates[bounds[g]:bounds[g + 1]]
                         for g in range(group_count)]
    return [QueryResult(candidates=per_group[g],
                        seed_hits=int(hits[g]),
                        locations_fetched=int(fetched[g]),
                        seed_table_accesses=int(group_sizes[g]))
            for g in range(group_count)]


def resolve_reads(seedmap: SeedMap, reads: Sequence[np.ndarray],
                  seed_length: int,
                  seeds_per_read: int = 3) -> List[QueryResult]:
    """Partitioned Seeding + SeedMap Query for a whole list of reads.

    The reads' seed windows (:func:`~repro.core.seeding.seed_offsets`)
    are sliced out of one concatenated code buffer, hashed with a single
    vectorized call, and resolved with one batched SeedMap probe; returns
    one :class:`QueryResult` per read, in input order.  A read shorter
    than one seed contributes no seed (no Seed Table access is charged),
    and so does a seed window holding an ambiguous base (``N``): it
    cannot be an exact 2-bit match, so the read keeps its other seeds.
    """
    if not reads:
        return []
    offsets_by_length = {}
    read_offsets = []
    for codes in reads:
        length = len(codes)
        offsets = offsets_by_length.get(length)
        if offsets is None:
            offsets = seed_offsets(length, seed_length, seeds_per_read)
            offsets_by_length[length] = offsets
        read_offsets.append(offsets)
    sizes = [len(offsets) for offsets in read_offsets]
    flat_offsets = np.array(
        [offset for offsets in read_offsets for offset in offsets],
        dtype=np.int64)
    groups = np.repeat(np.arange(len(reads)), sizes)
    hashes = np.zeros(0, dtype=np.uint64)
    if flat_offsets.size:
        lengths = np.array([len(codes) for codes in reads], dtype=np.int64)
        bases = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        windows = np.lib.stride_tricks.sliding_window_view(
            np.concatenate(reads), seed_length)[bases[groups] + flat_offsets]
        try:
            hashes = hash_reads_batch(windows)
        except ValueError:
            # hash_reads_batch's own scan found an ambiguous base, so
            # an N-free chunk pays no extra pass for this guard.
            concrete = (windows < ALPHABET_SIZE).all(axis=1)
            flat_offsets = flat_offsets[concrete]
            groups = groups[concrete]
            sizes = np.bincount(groups, minlength=len(reads))
            hashes = hash_reads_batch(windows[concrete])
    return query_hash_groups(seedmap, hashes, flat_offsets, groups,
                             len(reads), sizes)
