"""Paired-Adjacency Filtering: joint candidate filtering for a pair (§4.5).

Both reads of a proper pair land within the fragment length of each other,
so any candidate placement where the two implied read starts are farther
apart than the Δ threshold cannot be a correct joint mapping.  The
hardware module (§5.3) walks the two *sorted* candidate lists with two
pointers and a comparator and emits every (read1 start, read2 start) pair
within Δ; :func:`filter_rows` computes what that walk emits, and its
cycles, for many list pairs at once.

Orientation: in a proper FR placement read 2's (reverse-complemented)
start sits downstream of read 1's start by roughly
``insert_size - read_length``, which is positive and below Δ.  The filter
therefore accepts pairs with ``0 <= start2 - start1 <= delta`` by default;
``allow_dovetail`` relaxes the lower bound slightly for fragments shorter
than the read length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..hashing.table import ragged_ranges

#: Paper guidance: Δ is dataset-defined, "usually 200 to 500 bp".
DEFAULT_DELTA = 500

#: :func:`filter_rows` keys list ``r``'s starts ``r * _SPAN + start``;
#: linear coordinates stay inside ``±_FAR``, the outer chromosome edges.
_SPAN, _FAR = 2 ** 40, 2 ** 38


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


class JointColumns(NamedTuple):
    """List pair ``k``'s joint candidates are ``first[bounds[k]:bounds[k +
    1]]`` (read 1) with that slice of ``second``, in walk order; its walk
    takes ``iterations[k]`` comparator cycles."""

    first: np.ndarray
    second: np.ndarray
    bounds: np.ndarray
    iterations: np.ndarray


def filter_rows(candidates: np.ndarray, bounds: np.ndarray,
                rows: np.ndarray, delta: int = DEFAULT_DELTA,
                allow_dovetail: int = 30, max_pairs: int = 64,
                boundaries: Optional[np.ndarray] = None) -> JointColumns:
    """The two-pointer walk over many list pairs, as array passes.

    Sorted list ``r`` is ``candidates[bounds[r]:bounds[r + 1]]``; list
    pair ``k`` is list ``rows[k]`` (read 1) against ``rows[k] + 1``
    (read 2), as in :class:`~repro.core.query.QueryColumns`.  A joint
    candidate has ``-allow_dovetail <= start2 - start1 <= delta``, at
    most ``max_pairs`` are emitted (the hardware's bounded FIFO), and
    with ``boundaries`` (``ReferenceGenome.read_boundaries``) both
    starts must be on one chromosome: the linear space concatenates
    chromosomes, so a gap within Δ can cross from one to the next.

    At read-1 candidate ``x`` the walk steps read 2's pointer to ``lo``
    (the first partner ``>= x - allow_dovetail``), then spends a cycle
    on ``x`` and one per further partner below ``hi`` (the first ``> x
    + delta``).  It stops when read 2 runs out or the cap is met, so it
    costs ``j_final + i_final + Σ max(0, hi − lo − 1)`` over the
    candidates it reached, the last scan cut where the cap falls.
    """
    if max_pairs < 1:
        raise ValueError("max_pairs must be positive")
    candidates = np.asarray(candidates, dtype=np.int64)
    bounds = np.asarray(bounds, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    begin, start2, end2 = bounds[rows], bounds[rows + 1], bounds[rows + 2]
    size1, size2 = start2 - begin, end2 - start2
    pair, rank = ragged_ranges(size1)
    value = candidates[begin[pair] + rank]
    # One sorted key over every list, and one search for every bound of a
    # read-1 candidate x: lo (the first partner >= x - allow_dovetail), hi
    # (the first > x + delta) and the emitted range, the same cut to x's
    # chromosome.
    keyed = np.arange(bounds.size - 1).repeat(bounds[1:] - bounds[:-1]) \
        * _SPAN + candidates
    boundaries = np.asarray(() if boundaries is None else boundaries,
                            dtype=np.int64)
    edges = np.concatenate(([-_FAR], boundaries, [_FAR]))
    chromosome = boundaries.searchsorted(value, "right")
    ahead, behind = value - allow_dovetail, value + delta + 1
    targets = np.array((ahead, behind,
                        np.maximum(ahead, edges[chromosome]),
                        np.minimum(behind, edges[chromosome + 1])))
    lo, hi, first, last = keyed.searchsorted(
        (rows[pair] + 1) * _SPAN + targets) - start2[pair]
    emitted = np.maximum(last - first, 0)
    # What the list emitted before each candidate, and what it may add.
    running = emitted.cumsum() - emitted
    head = size1.cumsum() - size1
    earlier = running - running[head[pair]]
    take = np.minimum(np.maximum(max_pairs - earlier, 0), emitted)
    capped = earlier + emitted >= max_pairs

    def per_pair(column: np.ndarray) -> np.ndarray:
        return np.bincount(pair, column, rows.size).astype(np.int64)

    # The walk reaches candidates [0, reached): up to the one before
    # read 2 runs out (``stop``), or the one whose scan meets the cap.
    stop = per_pair(lo < size2[pair])
    cap = size1 - per_pair(capped)
    reached = np.minimum(stop, cap + 1)
    scanned = np.where(capped, first + take - 1, np.maximum(hi - 1, lo)) \
        - lo
    extra = per_pair(scanned * (rank < reached[pair]))
    last_lo = np.where(reached > 0,
                       np.concatenate(([0], lo))[head + reached], 0)
    j_final = np.where((stop < size1) & (stop <= cap), size2, last_lo)
    owner, within = ragged_ranges(take)
    return JointColumns(
        first=value[owner],
        second=candidates[(start2[pair] + first)[owner] + within],
        bounds=np.concatenate(([0], per_pair(take).cumsum())),
        iterations=j_final + reached + extra)


def filter_adjacent(candidates1: np.ndarray, candidates2: np.ndarray,
                    delta: int = DEFAULT_DELTA,
                    allow_dovetail: int = 30,
                    max_pairs: int = 64,
                    boundaries: Optional[np.ndarray] = None
                    ) -> FilterResult:
    """The joint candidates of one pair of sorted candidate lists:
    :func:`filter_rows` on one list pair."""
    candidates1 = np.asarray(candidates1, dtype=np.int64)
    candidates2 = np.asarray(candidates2, dtype=np.int64)
    joint = filter_rows(
        np.concatenate((candidates1, candidates2)),
        np.array([0, candidates1.size, candidates1.size + candidates2.size]),
        np.zeros(1, dtype=np.int64), delta, allow_dovetail, max_pairs,
        boundaries)
    return FilterResult(
        pairs=tuple(zip(joint.first.tolist(), joint.second.tolist())),
        iterations=int(joint.iterations[0]))
