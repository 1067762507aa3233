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
                boundaries: Optional[np.ndarray] = None,
                shifts: Optional[np.ndarray] = None) -> JointColumns:
    """The two-pointer walk over many list pairs, as array passes.

    Sorted list ``r`` is ``candidates[bounds[r]:bounds[r + 1]]``; list
    pair ``k`` is list ``rows[k]`` (read 1) against ``rows[k] + 1``
    (read 2), as in :class:`~repro.core.query.QueryColumns`.  A joint
    candidate has ``-allow_dovetail <= start2 - start1 <= delta``, at
    most ``max_pairs`` are emitted (the hardware's bounded FIFO), and
    with ``boundaries`` (``ReferenceGenome.read_boundaries``) both
    starts must be on one chromosome: the linear space concatenates
    chromosomes, so a gap within Δ can cross from one to the next.
    With ``shifts`` too, list pair ``k``'s boundaries are ``boundaries
    - shifts[k]`` (each pair's own read length, in one call).

    At read-1 candidate ``x`` the walk steps read 2's pointer to ``lo``
    (the first partner ``>= x - allow_dovetail``), a cycle a step, then
    spends a cycle on ``x`` (unless read 2 ran out) and one per further
    partner below ``hi`` (the first ``> x + delta``), the last scan cut
    where the cap falls.  It visits candidates until the cap is met, so
    a list pair costs the sum of what each candidate it visits costs.
    """
    if max_pairs < 1:
        raise ValueError("max_pairs must be positive")
    candidates = np.asarray(candidates, dtype=np.int64)
    bounds = np.asarray(bounds, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    begin, start2 = bounds[rows], bounds[rows + 1]
    size1, size2 = start2 - begin, bounds[rows + 2] - start2
    # ends[k]: the read-1 candidates of list pairs before k, so list pair
    # k's are the flat [ends[k], ends[k + 1]); candidate x is number
    # rank[x] of list pair pair[x], whose first is head[x].
    ends = np.zeros(rows.size + 1, dtype=np.int64)
    np.add.accumulate(size1, out=ends[1:])
    pair = np.arange(rows.size).repeat(size1)
    flat = np.arange(pair.size)
    head = ends[pair]
    rank = flat - head
    value = candidates[begin[pair] + rank]
    # One sorted key over every list, and one search for every bound of a
    # read-1 candidate x: lo (the first partner >= x - allow_dovetail), hi
    # (the first > x + delta) and the emitted range, the same cut to x's
    # chromosome.
    keyed = np.arange(bounds.size - 1).repeat(bounds[1:] - bounds[:-1]) \
        * _SPAN + candidates
    targets = np.empty((4, value.size), dtype=np.int64)
    np.subtract(value, allow_dovetail, out=targets[0])
    np.add(value, delta + 1, out=targets[1])
    if boundaries is None:
        targets[2:] = targets[:2]
    else:
        boundaries = np.asarray(boundaries, dtype=np.int64)
        edges = np.empty(boundaries.size + 2, dtype=np.int64)
        edges[0], edges[1:-1], edges[-1] = -_FAR, boundaries, _FAR
        shift = 0 if shifts is None else np.asarray(shifts)[pair]
        chromosome = boundaries.searchsorted(value + shift, "right")
        np.maximum(targets[0], edges[chromosome] - shift, out=targets[2])
        np.minimum(targets[1], edges[1:][chromosome] - shift,
                   out=targets[3])
    start2 = start2[pair]
    targets += ((rows + 1) * _SPAN)[pair]
    found = keyed.searchsorted(targets)
    found -= start2
    lo, hi, first, last = found[0], found[1], found[2], found[3]
    emitted = np.maximum(last - first, 0)
    # What the list emitted before each candidate leaves room for; the
    # candidate whose scan fills it is the last one the walk visits.
    before = np.add.accumulate(emitted) - emitted
    room = max_pairs - (before - before[head])
    take = np.minimum(np.maximum(room, 0), emitted)
    # The cycles x costs, if the walk visits it: one per step of the
    # read-2 pointer from the previous candidate's lo to x's, one for x
    # itself unless read 2 ran out, and one per further partner it scans
    # (up to the one that fills the room, on the candidate that does).
    steps = lo - np.concatenate(([0], lo[:-1]))
    steps = np.where(rank == 0, lo, steps)
    scanned = np.where(room <= emitted, first + take - 1,
                       np.maximum(hi - 1, lo)) - lo
    cycles = steps + scanned + (lo < size2[pair])
    cycles *= room > 0
    # Emitted pairs, candidate by candidate: x's take[x] partners from
    # start2 + first[x].
    taken = np.zeros(take.size + 1, dtype=np.int64)
    np.add.accumulate(take, out=taken[1:])
    partner = (start2 + first - taken[:-1]).repeat(take)
    partner += np.arange(partner.size)
    return JointColumns(
        first=value.repeat(take), second=candidates[partner],
        bounds=taken[ends],
        iterations=np.bincount(pair, cycles, rows.size).astype(np.int64))


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
