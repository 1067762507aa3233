"""Seed chaining via dynamic programming (minimap2-style).

Chaining is the dominant cost of paired-end mapping in the software baseline
(>65% of execution time, §2): anchors — exact seed matches between read and
reference — are chained into colinear runs with a quadratic DP.  The
baseline mapper uses this module directly, and its ``cells`` output feeds
the GenDP MCUPS sizing for the residual-chaining workload (§7.4).

:func:`chain_anchors` is the one entry.  Anchors arrive as columns
(:class:`AnchorColumns`: every anchor of every chaining problem of a
chunk — one problem per read and strand); a ``Sequence[Anchor]`` is one
problem through the same sweep, the convention
:func:`repro.align.banded.align_banded` has for 1-D and 2-D input.

**The segment argument.**  Anchors are sorted by ``(problem, ref_pos,
read_pos)``.  An arc needs ``0 < ref_gap <= max_gap``, so no arc crosses
a problem boundary or a neighbour ``ref_pos`` gap above ``max_gap``: the
sorted row falls into independent *segments* (a repeat-heavy 796-anchor
problem is 46 of them, the longest 72).  The DP therefore sweeps
*position-in-segment*: step ``p`` scores the ``p``-th anchor of every
segment that long, its ``min(p, max_lookback)`` predecessors all inside
the segment, with a fixed number of numpy operations over
``(active segments, lookback)``.  Arc terms live for one step only — a
chunk-wide ``(anchors, lookback)`` table would be tens of MB.
Predecessors beyond a cut are still *counted* (``cells`` is the closed
form ``sum(min(i, max_lookback))`` over a problem's anchors, which is what
the per-anchor loop charged): they were visited and skipped.

**The tie-break contract** — exactly the scalar loop's, which lives on as
the test oracle in ``tests/oracles/align.py`` (nothing here imports it):
a candidate is ``(scores[j] + gain) - penalty`` in that association, the
penalty's log term read from a ``math.log2`` table (``np.log2`` may
differ in the last bit, and one ulp flips a tie); the parent is the
*nearest* predecessor reaching the strict maximum, and only if that
beats the anchor's own length; chains are extracted best first, ties in
sorted-anchor order, an anchor used once, and a tail whose backtrack
runs into a used anchor is skipped.  ``Chain``/``Anchor`` objects are
built for the extracted chains only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple, Union

import numpy as np


@dataclass(frozen=True)
class Anchor:
    """An exact match of ``length`` bases: read offset -> reference position."""

    ref_pos: int
    read_pos: int
    length: int


@dataclass(frozen=True)
class AnchorColumns:
    """The anchors of ``problems`` independent chaining problems as
    parallel int64 columns; ``problem[i]`` says which one anchor ``i``
    belongs to (a problem may have none)."""

    ref_pos: np.ndarray
    read_pos: np.ndarray
    length: np.ndarray
    problem: np.ndarray
    problems: int


@dataclass(frozen=True)
class Chain:
    """A scored colinear chain of anchors."""

    anchors: Tuple[Anchor, ...]
    score: float

    @property
    def ref_start(self) -> int:
        return self.anchors[0].ref_pos

    @property
    def ref_end(self) -> int:
        last = self.anchors[-1]
        return last.ref_pos + last.length

    @property
    def read_start(self) -> int:
        return self.anchors[0].read_pos

    @property
    def read_end(self) -> int:
        last = self.anchors[-1]
        return last.read_pos + last.length

    @property
    def diagonal(self) -> int:
        """Reference offset of read position 0 implied by the chain start."""
        return self.anchors[0].ref_pos - self.anchors[0].read_pos


@dataclass(frozen=True)
class ChainingResult:
    """All chains found plus DP accounting."""

    chains: Tuple[Chain, ...]
    cells: int

    @property
    def best(self) -> Chain:
        if not self.chains:
            raise ValueError("no chains produced")
        return self.chains[0]


def chain_anchors(anchors: Union[Sequence[Anchor], AnchorColumns],
                  max_gap: int = 500, max_lookback: int = 25,
                  min_score: float = 20.0, max_chains: int = 8
                  ) -> Union[ChainingResult, List[ChainingResult]]:
    """Chain anchors with the standard O(n * lookback) DP.

    Anchors are sorted by (ref_pos, read_pos); for each anchor the DP scans
    up to ``max_lookback`` predecessors whose reference and read gaps are
    positive and below ``max_gap``.  Chains scoring below ``min_score`` are
    dropped; at most ``max_chains`` non-overlapping chains are returned,
    best first.

    A ``Sequence[Anchor]`` is one problem and returns its
    :class:`ChainingResult`; :class:`AnchorColumns` returns one result
    per problem, in problem order.
    """
    if isinstance(anchors, AnchorColumns):
        return _chain_columns(anchors, max_gap, max_lookback, min_score,
                              max_chains)
    table = np.array([(a.ref_pos, a.read_pos, a.length) for a in anchors],
                     dtype=np.int64).reshape(-1, 3)
    single = AnchorColumns(table[:, 0], table[:, 1], table[:, 2],
                           np.zeros(len(table), dtype=np.int64), 1)
    return _chain_columns(single, max_gap, max_lookback, min_score,
                          max_chains)[0]


def _chain_columns(anchors: AnchorColumns, max_gap: int, max_lookback: int,
                   min_score: float, max_chains: int
                   ) -> List[ChainingResult]:
    if not anchors.ref_pos.size:
        return [ChainingResult((), 0)] * anchors.problems
    order = np.lexsort((anchors.read_pos, anchors.ref_pos, anchors.problem))
    ref = anchors.ref_pos[order]
    read = anchors.read_pos[order]
    length = anchors.length[order]
    problem = anchors.problem[order]
    counts = np.bincount(problem, minlength=anchors.problems)
    # sum(min(i, lookback)) over a problem's anchors i = 0 .. count - 1.
    ramp = np.minimum(counts, max_lookback + 1)
    cells = (ramp * (ramp - 1) // 2
             + (counts - ramp) * max_lookback).tolist()
    average = (np.bincount(problem, weights=length,
                           minlength=anchors.problems)
               / np.maximum(counts, 1))
    scores, parents = _sweep(ref, read, length,
                             (0.2 * average * 0.05)[problem],
                             _segment_starts(ref, problem, max_gap),
                             max_gap, max_lookback)
    chains = _extract_chains(ref, read, length, problem, scores, parents,
                             anchors.problems, min_score, max_chains)
    return [ChainingResult(tuple(found), spent)
            for found, spent in zip(chains, cells)]


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
           slope: np.ndarray, starts: np.ndarray, max_gap: int,
           max_lookback: int) -> Tuple[np.ndarray, np.ndarray]:
    """Chain score and parent (index into the sorted row, -1 for a chain
    start) of every anchor; ``slope`` is the linear coefficient of each
    anchor's gap penalty."""
    scores = length.astype(np.float64)
    parents = np.full(ref.size, -1, dtype=np.int64)
    sizes = np.diff(starts, append=ref.size)
    # Longest segment first: the segments still running at step p are a
    # prefix of this order.
    by_size = np.argsort(-sizes, kind="stable")
    starts = starts[by_size]
    running = np.searchsorted(-sizes[by_size], -np.arange(int(sizes.max())))
    columns = np.stack((ref, read, length))  # one gather fetches all three
    half_log = _half_log_table(max_gap)
    back = np.arange(1, max_lookback + 1)
    rows = np.arange(starts.size)
    for step in range(1, running.size):
        i = starts[:running[step]] + step
        j = i[:, None] - back[:min(step, max_lookback)]
        here = columns[:, i][:, :, None]
        there = columns[:, j]
        gaps = here[:2] - there[:2]
        near = np.minimum(gaps[0], gaps[1])
        far = np.maximum(gaps[0], gaps[1])
        gain = here[2] - np.minimum(np.maximum(there[2] - near, 0), here[2])
        diff = far - near
        penalty = (slope[i][:, None] * diff
                   + half_log.take(diff, mode="clip"))
        candidate = (scores[j] + gain) - penalty
        candidate[(near <= 0) | (far > max_gap)] = -np.inf
        # argmax takes the first maximum: the nearest predecessor.
        pick = candidate.argmax(axis=1)
        best = candidate[rows[:i.size], pick]
        better = best > here[2, :, 0]
        chosen = i[better]
        scores[chosen] = best[better]
        parents[chosen] = chosen - pick[better] - 1
    return scores, parents


def _chain_starts(parents: np.ndarray) -> np.ndarray:
    """The anchor each anchor's backtrack ends at, by pointer doubling."""
    roots = np.where(parents < 0, np.arange(parents.size), parents)
    while True:
        above = roots[roots]
        if np.array_equal(above, roots):
            return roots
        roots = above


def _extract_chains(ref: np.ndarray, read: np.ndarray, length: np.ndarray,
                    problem: np.ndarray, scores: np.ndarray,
                    parents: np.ndarray, problems: int, min_score: float,
                    max_chains: int) -> List[List[Chain]]:
    """Greedy backtracking per problem: best chain first, anchors used
    at most once.

    Walking the tails best first and skipping any whose backtrack meets
    a used anchor keeps, of each tree of the parent forest, exactly the
    first tail met — every later one runs into the used root — so the
    walk is a first-occurrence-per-root over the sorted tails.
    """
    tails = np.flatnonzero(scores >= min_score)
    # Stable: equal scores keep sorted-anchor order within a problem.
    tails = tails[np.lexsort((-scores[tails], problem[tails]))]
    _, first = np.unique(_chain_starts(parents)[tails], return_index=True)
    tails = tails[np.sort(first)]
    found = np.bincount(problem[tails], minlength=problems)
    rank = np.arange(tails.size) - np.repeat(np.cumsum(found) - found, found)
    tails = tails[rank < max_chains]
    parent_of = parents.item  # a list of every parent would be MBs
    members: List[int] = []
    ends = []
    for node in tails.tolist():
        path = []
        while node != -1:
            path.append(node)
            node = parent_of(node)
        members.extend(reversed(path))
        ends.append(len(members))
    anchors = list(map(Anchor, ref[members].tolist(), read[members].tolist(),
                       length[members].tolist()))
    chains = map(Chain, (tuple(anchors[begin:end])
                         for begin, end in zip([0] + ends, ends)),
                 scores[tails].tolist())
    return [list(itertools.islice(chains, count))
            for count in np.minimum(found, max_chains).tolist()]
