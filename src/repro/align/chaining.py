"""Seed chaining via dynamic programming (minimap2-style).

Chaining is the dominant cost of paired-end mapping in the software baseline
(>65% of execution time, §2): anchors — exact seed matches between read and
reference — are chained into colinear runs with a quadratic DP.  The
baseline mapper uses this module directly, and its ``cells`` output feeds
the GenDP MCUPS sizing for the residual-chaining workload (§7.4).

:func:`chain_anchors` is the one entry.  Anchors arrive as columns
(:class:`AnchorColumns`: every anchor of every chaining problem of a
chunk — one problem per read and strand) and chains leave as columns
(:class:`ChainColumns`).

**The segment argument.**  Anchors are sorted by ``(problem, ref_pos,
read_pos)``.  An arc needs ``0 < ref_gap <= max_gap``, so no arc crosses
a problem boundary or a neighbour ``ref_pos`` gap above ``max_gap``: the
sorted row falls into independent *segments* (a repeat-heavy 796-anchor
problem is 46 of them, the longest 72).  Segments are laid out longest
first as the rows of a *(segment x position)* plane, so the DP sweeps
*position-in-segment*: step ``p`` scores column ``p`` of every row that
long — a prefix of the rows — and reads its ``min(p, max_lookback)``
predecessors as the reversed column slice ``p - 1 ... p - L`` of the
position and score planes, with a fixed number of numpy operations over
``(live rows, lookback)`` and no gather.  Reference positions are stored
relative to the row's first anchor, so the planes are int32 whatever the
genome size (int64 only when a segment or the read positions span 2**30).
A lone anchor has no predecessor and no row.  The rows go through planes
of at most :data:`SWEEP_CELL_BUDGET` cells, each taking as many of the
longest rows left as fit: padding costs bounded memory, and a chunk of a
few dozen pairs is one plane, swept in as few steps as its longest
segment allows (a step costs its numpy calls however few rows it has).
Arc terms live for one step only — a chunk-wide ``(anchors, lookback)``
table would be tens of MB.  Predecessors beyond a cut are still
*counted* (``cells`` is the closed form ``sum(min(i, max_lookback))``
over a problem's anchors, which is what the per-anchor loop charged):
they were visited and skipped.

**The tie-break contract** — exactly the scalar loop's, which lives on as
the test oracle in ``tests/oracles/align.py`` (nothing here imports it):
a candidate is ``(scores[j] + gain) - penalty`` in that association, the
penalty's log term read from a ``math.log2`` table (``np.log2`` may
differ in the last bit, and one ulp flips a tie); the parent is the
*nearest* predecessor reaching the strict maximum, and only if that
beats the anchor's own length; chains are extracted best first, ties in
sorted-anchor order, an anchor used once, and a tail whose backtrack
runs into a used anchor is skipped.

**Extraction yields columns.**  The chains of a chunk come out as
chunk-wide columns — problem, rank, score and diagonal of every chain —
which is all a mapper reads.  A chain's score is its tail's and its
diagonal its root's (the backtrack's end, found by pointer doubling), so
no chain is walked anchor by anchor.  The greedy walk keeps one tail per
root, its best (lowest index on a tie): the tails are grouped by root
with one stable sort and each group's best taken with one
``np.maximum.reduceat``, so only one winner per root, not every tail,
is sorted by score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from ..hashing import ragged_ranges

#: Most cells of one sweep plane: 2**17, ~4 MB across its index, position
#: and score planes.
SWEEP_CELL_BUDGET = 1 << 17


@dataclass(frozen=True)
class AnchorColumns:
    """The anchors of ``problems`` independent chaining problems as
    parallel int64 columns; ``problem[i]`` says which one anchor ``i``
    belongs to (a problem may have none).  An anchor is an exact match of
    ``length`` bases, read offset ``read_pos`` -> reference position
    ``ref_pos``."""

    ref_pos: np.ndarray
    read_pos: np.ndarray
    length: np.ndarray
    problem: np.ndarray
    problems: int


@dataclass(frozen=True)
class ChainColumns:
    """Every chain kept, in problem then rank order, as parallel columns:
    ``problem``, ``rank`` (0 is the problem's best), ``score`` and
    ``diagonal`` (the chain start's ``ref_pos - read_pos``); ``cells``
    is the DP work of every problem."""

    problem: np.ndarray
    rank: np.ndarray
    score: np.ndarray
    diagonal: np.ndarray
    cells: int


def chain_anchors(anchors: AnchorColumns, max_gap: int = 500,
                  max_lookback: int = 25, min_score: float = 20.0,
                  max_chains: int = 8) -> ChainColumns:
    """Chain each problem's anchors with the standard O(n * lookback) DP.

    A problem's anchors are sorted by (ref_pos, read_pos); for each anchor
    the DP scans up to ``max_lookback`` predecessors whose reference and
    read gaps are positive and below ``max_gap``.  Chains scoring below
    ``min_score`` are dropped; at most ``max_chains`` non-overlapping
    chains are kept per problem, best first.
    """
    if not anchors.ref_pos.size:
        none = np.zeros(0, dtype=np.int64)
        return ChainColumns(none, none, np.zeros(0), none, 0)
    order = _sorted_order(anchors)
    ref = anchors.ref_pos[order]
    read = anchors.read_pos[order]
    length = anchors.length[order]
    problem = anchors.problem[order]
    counts = np.bincount(problem, minlength=anchors.problems)
    # sum(min(i, lookback)) over a problem's anchors i = 0 .. count - 1.
    ramp = np.minimum(counts, max_lookback + 1)
    cells = int((ramp * (ramp - 1) // 2
                 + (counts - ramp) * max_lookback).sum())
    average = (np.bincount(problem, weights=length,
                           minlength=anchors.problems)
               / np.maximum(counts, 1))
    starts = _segment_starts(ref, problem, max_gap)
    scores, parents = _sweep(ref, read, length, starts,
                             (0.2 * average * 0.05)[problem[starts]],
                             max_gap, max_lookback)
    tails, rank, roots = _chain_tails(problem, scores, parents, min_score,
                                      max_chains)
    return ChainColumns(problem[tails], rank, scores[tails],
                        ref[roots] - read[roots], cells)


def _sorted_order(anchors: AnchorColumns) -> np.ndarray:
    """The ``(problem, ref_pos, read_pos)`` order of the anchors,
    ``np.lexsort``'s, as two stable sorts: by ``read_pos``, then by one
    int64 key for the other two (a third of the lexsort's time; the key
    holds ``problems x`` the reference span, far inside int64)."""
    order = np.argsort(anchors.read_pos, kind="stable")
    low = int(anchors.ref_pos.min())
    span = int(anchors.ref_pos.max()) - low + 1
    key = anchors.problem[order] * span + (anchors.ref_pos[order] - low)
    return order[np.argsort(key, kind="stable")]


def _segment_starts(ref: np.ndarray, problem: np.ndarray,
                    max_gap: int) -> np.ndarray:
    """Indices where a new independent segment of the sorted row starts."""
    cut = np.ones(ref.size, dtype=bool)
    cut[1:] = (problem[1:] != problem[:-1]) | (ref[1:] - ref[:-1] > max_gap)
    return np.flatnonzero(cut)


@lru_cache(maxsize=8)
def _half_log_table(max_gap: int) -> np.ndarray:
    """``0.5 * log2(diff + 1)`` for every diagonal difference an arc
    within ``max_gap`` can have, from ``math.log2`` (see the module
    docstring); halving is exact.  Shared, so read-only."""
    table = np.array([0.5 * math.log2(diff + 1)
                      for diff in range(max(max_gap, 1))])
    table.setflags(write=False)
    return table


def _sweep(ref: np.ndarray, read: np.ndarray, length: np.ndarray,
           starts: np.ndarray, slope: np.ndarray, max_gap: int,
           max_lookback: int) -> Tuple[np.ndarray, np.ndarray]:
    """Chain score and parent (index into the sorted row, -1 for a chain
    start) of every anchor; ``slope[s]`` is the linear coefficient of
    segment ``s``'s gap penalty."""
    scores = length.astype(np.float64)
    parents = np.full(ref.size, -1, dtype=np.int64)
    if max_lookback < 1:
        return scores, parents  # no anchor looks back at all
    sizes = np.diff(starts, append=ref.size)
    by_size = np.argsort(-sizes, kind="stable")
    by_size = by_size[sizes[by_size] > 1]
    # Positions go in relative (reference to the row's first anchor, read
    # to the lowest): int32 planes unless a gap could leave int32.
    lowest_read = read.min()
    widest = max(int((ref[starts + sizes - 1] - ref[starts]).max()),
                 int(read.max() - lowest_read), int(length.max()))
    narrow = np.int32 if widest < 2 ** 30 else np.int64
    half_log = _half_log_table(max_gap)
    begin = 0
    while begin < by_size.size:
        width = int(sizes[by_size[begin]])
        rows = by_size[begin:begin + max(SWEEP_CELL_BUDGET // width, 1)]
        begin += rows.size
        first, size = starts[rows], sizes[rows]
        # Row r, column p: anchor first[r] + p; padding repeats the last.
        index = np.minimum(first[:, None] + np.arange(width),
                           (first + size - 1)[:, None])
        ref_plane = (ref[index] - ref[first][:, None]).astype(narrow)
        read_plane = (read[index] - lowest_read).astype(narrow)
        length_plane = length[index].astype(narrow)
        score_plane = scores[index]
        row_slope = slope[rows][:, None]
        row_number = np.arange(rows.size)
        # The rows still running at step p are a prefix: longest first.
        running = np.searchsorted(-size, -np.arange(width)).tolist()
        for step in range(1, width):
            live = running[step]
            # Predecessors nearest first: argmax takes the first maximum.
            back = slice(step - 1, step - max_lookback - 1
                         if step > max_lookback else None, -1)
            ref_gap = (ref_plane[:live, step, None]
                       - ref_plane[:live, back])
            read_gap = (read_plane[:live, step, None]
                        - read_plane[:live, back])
            near = np.minimum(ref_gap, read_gap)
            far = np.maximum(ref_gap, read_gap)
            own = length_plane[:live, step]
            gain = own[:, None] - np.minimum(
                np.maximum(length_plane[:live, back] - near, 0),
                own[:, None])
            diff = far - near
            penalty = (row_slope[:live] * diff
                       + half_log.take(diff, mode="clip"))
            candidate = (score_plane[:live, back] + gain) - penalty
            candidate[(near <= 0) | (far > max_gap)] = -np.inf
            pick = candidate.argmax(axis=1)
            best = candidate[row_number[:live], pick]
            better = best > own
            score_plane[:live, step] = np.where(better, best, own)
            chosen = index[:live, step][better]
            parents[chosen] = chosen - pick[better] - 1
        valid = np.arange(width) < size[:, None]
        scores[index[valid]] = score_plane[valid]
    return scores, parents


def _chain_starts(parents: np.ndarray) -> np.ndarray:
    """The anchor each anchor's backtrack ends at, by pointer doubling."""
    roots = np.where(parents < 0, np.arange(parents.size), parents)
    while True:
        above = roots[roots]
        if np.array_equal(above, roots):
            return roots
        roots = above


def _chain_tails(problem: np.ndarray, scores: np.ndarray,
                 parents: np.ndarray, min_score: float, max_chains: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy backtracking per problem — best chain first, anchors used
    at most once — as ``(tail, rank, root)`` columns of the chains kept,
    in problem then rank order.

    Walking the tails best first (ties in sorted-anchor order) and
    skipping any whose backtrack meets a used anchor keeps, of each tree
    of the parent forest, exactly the first tail met — every later one
    runs into the used root.  So each root keeps its best tail, the
    lowest index on a tie, and only those winners are ordered by
    ``(problem, -score, index)``: no sort over every tail's float score.
    """
    tails = np.flatnonzero(scores >= min_score)
    if not tails.size:
        return tails, tails, tails
    roots = _chain_starts(parents)
    # Tails grouped by root, each group in index order (stable).
    tails = tails[np.argsort(roots[tails], kind="stable")]
    tail_roots, tail_scores = roots[tails], scores[tails]
    starts = np.flatnonzero(np.concatenate(
        ([True], tail_roots[1:] != tail_roots[:-1])))
    best = np.maximum.reduceat(tail_scores, starts)
    # The first tail of each group reaching its best: the lowest index.
    reaching = np.flatnonzero(tail_scores == np.repeat(
        best, np.diff(starts, append=tails.size)))
    group = np.searchsorted(starts, reaching, side="right")
    winners = tails[reaching[np.concatenate(
        ([True], group[1:] != group[:-1]))]]
    tails = winners[np.lexsort((winners, -scores[winners],
                                problem[winners]))]
    _, rank = ragged_ranges(np.bincount(problem[tails]))
    kept = rank < max_chains
    tails = tails[kept]
    return tails, rank[kept], roots[tails]
