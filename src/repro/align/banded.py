"""Banded affine-gap alignment (Banded Smith-Waterman, as in GenDP).

GenDP — the DP fallback engine GenPairX integrates with — implements
Banded Smith-Waterman (§7.4).  This is the public entry to the same banded
semiglobal alignment: cells are computed only within ``bandwidth``
diagonals of the *expected diagonal*, the offset at which a candidate
location puts the read in its window.  Edits shift an alignment by a few
bases (Table 1 tops out at 5-base gaps), so a narrow band loses nothing.

:func:`repro.align.dp.gotoh_stack` does the work (its module has the
recurrence, the prefix-max scan, the plane types and the derived
traceback).  A row costs it a fixed number of numpy calls however many
problems it sweeps, so the cost of a problem falls with the stack it
rides in until the planes leave the cache.  Measured for the 150 x
33-cell band of a chain or candidate alignment with int16 planes, ms per
problem on one CPU of a 2-vCPU x86-64 host (medians): 1.08 alone, 0.75
at B=2, 0.30 at B=8, 0.23 at B=16, 0.14 at B=32, 0.066 at B=64, 0.063
at B=128 — and no better beyond, at ~52 KB of transient planes per
problem (~93 KB in int32).
:func:`align_banded` takes one problem (1-D arrays) or a stack of equal
shape (2-D) and is the only way into the kernel.

:func:`align_problems` is how the mappers call it: every problem of a
chunk or rescue wave at once, in as few sweeps as the shapes allow.

* *The cut.*  A band that lies inside its window (diagonals ``d - w`` to
  ``d + w`` of an ``n``-base read, ``0 <= d - w`` and ``d + w + n <=
  m``) needs only the window's bases ``d - w - 1`` to ``d + w + n``: the
  one base left of the band keeps the band's left edge off column 0, so
  every cell, sentinel and tie of the cut problem is the uncut one's
  (a band starting at ``d - w = 0`` is cut on the right only).  The
  result is shifted back with :meth:`AlignmentResult.shifted`.  So
  problems that differ only in window length or diagonal — a chain's
  window clamped at a chromosome end, the rescue bands of one width at
  different diagonals of their windows — share a shape, and a sweep.
  A band its window clamps keeps its own shape.
* *Repeats.*  A problem equal to another of the call (read, cut window,
  diagonal, bandwidth) is swept once and both get the result; each still
  carries its own ``cells``, which the callers charge to their stats.
* *The certificate.*  Before any sweep is sized, a problem is resolved
  without one when an ungapped alignment provably is the sweep's answer.
  Its diagonals that lie in both band and window run from ``max(d - w,
  0)`` to ``min(d + w, m - n)``; let ``U`` be the best ungapped score
  over them.  If ``perfect - U < gap_open + gap_extend``, ``U`` is the
  optimum: a path with a gap loses at least ``gap_open + gap_extend``
  (a read hanging off column 0 included), so the kernel's leftmost
  best end cell is the lowest diagonal reaching ``U``, and the
  traceback from it is that pure diagonal (an ``E`` or ``F`` value on
  it would make a gapped path at least as good as ``U``).  The result
  is the sweep's: score ``U``, span ``[d, d + n)``, the band's ``cells``
  (:func:`~repro.align.dp.band_rows`, the sweep's own count) and op
  letters ``=``/``X`` from the equality row, encoded when ``cigar`` is
  read.  One ``count_nonzero`` on each problem's own diagonal decides
  which problems are scanned over the whole band, in
  :data:`STACK_BYTE_BUDGET` slices; the rest fill the sweeps.  (On the
  sets below that check drops no problem the rule holds for.)  It
  resolves 252 of the 480 problems of a 100-pair ``giab`` pass through
  the mm2 mapper (swept cells 2.34 M -> 1.31 M) and 119 of the 446
  candidate-DP problems of a 300-pair one (1.86 M -> 1.57 M); callers
  still charge every problem's ``cells``.
* *The budget.*  A shape is cut into the fewest equal sweeps whose planes
  fit :data:`STACK_BYTE_BUDGET` (:func:`~repro.align.dp.plane_bytes`),
  which is where the curve above has flattened: 78 int32 or 142 int16
  problems of 150 x 33.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from .dp import AlignmentResult, band_rows, gotoh_stack, plane_bytes
from .scoring import DEFAULT_SCHEME, ScoringScheme


#: Most bytes of transient planes one sweep of :func:`align_problems`
#: allocates (:func:`~repro.align.dp.plane_bytes` per problem), and of
#: the certificate's equality planes in one slice: 78 int32 or 142 int16
#: problems of 150 x 33, where the B-curve has flattened.
STACK_BYTE_BUDGET = 7 * 2 ** 20

# The op letter of a diagonal move, indexed by "the bases are equal".
_OP_LETTERS = np.frombuffer(b"X=", dtype=np.uint8)


class AlignmentStack(List[AlignmentResult]):
    """Results of one stacked call, in stack order; ``cells`` is the DP
    work of the whole stack (each result carries its own share)."""

    @property
    def cells(self) -> int:
        return sum(result.cells for result in self)


def align_banded(read: np.ndarray, ref: np.ndarray,
                 scheme: ScoringScheme = DEFAULT_SCHEME,
                 diagonal: int = 0, bandwidth: int = 16
                 ) -> Union[AlignmentResult, AlignmentStack]:
    """Banded semiglobal alignment of ``read`` within a reference window.

    ``diagonal`` is the expected offset of the read start in the window
    (``j - i`` of the main diagonal), ``bandwidth`` the band's half-width
    in diagonals.  1-D ``read``/``ref`` are one problem and return one
    :class:`AlignmentResult`; 2-D ``(B, n)``/``(B, m)`` are ``B`` problems
    swept together and return an :class:`AlignmentStack`.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    read = np.asarray(read, dtype=np.uint8)
    ref = np.asarray(ref, dtype=np.uint8)
    if read.ndim != ref.ndim or read.ndim not in (1, 2) \
            or (read.ndim == 2 and read.shape[0] != ref.shape[0]):
        raise ValueError(
            f"read {read.shape} and ref {ref.shape} must both be 1-D, or "
            f"both 2-D stacks of the same number of problems")
    results = gotoh_stack(np.atleast_2d(read), np.atleast_2d(ref), scheme,
                          diagonal, bandwidth)
    return AlignmentStack(results) if read.ndim == 2 else results[0]


def align_problems(problems: Sequence[Optional[Tuple[np.ndarray, np.ndarray,
                                                     int, int]]],
                   scheme: ScoringScheme = DEFAULT_SCHEME
                   ) -> List[Optional[AlignmentResult]]:
    """Align every ``(read, window, diagonal, bandwidth)`` problem: its
    result, exactly that of a lone :func:`align_banded`, or ``None`` for
    a ``None`` problem (a candidate with no window).  Each band is cut to
    its span, each distinct problem certified ungapped or swept once, and
    each shape's swept ones in the fewest sweeps that fit
    :data:`STACK_BYTE_BUDGET` (module docstring)."""
    # shape -> (read bytes + window bytes) -> (read, cut window, members)
    shapes: Dict[Tuple[int, int, int, int], Dict[bytes, tuple]] = {}
    for index, problem in enumerate(problems):
        if problem is None:
            continue
        read, window, diagonal, bandwidth = problem
        read = np.asarray(read, dtype=np.uint8)
        window = np.asarray(window, dtype=np.uint8)
        n, left = len(read), 0
        if n and 0 <= diagonal - bandwidth \
                and diagonal + bandwidth + n <= len(window):
            left = max(diagonal - bandwidth - 1, 0)
            window = window[left:diagonal + bandwidth + n]
            diagonal -= left
        distinct = shapes.setdefault((n, len(window), diagonal, bandwidth),
                                     {})
        distinct.setdefault(read.tobytes() + window.tobytes(),
                            (read, window, []))[2].append((index, left))
    results: List[Optional[AlignmentResult]] = [None] * len(problems)
    for (n, m, diagonal, bandwidth), distinct in shapes.items():
        group = list(distinct.values())
        reads = np.stack([read for read, _, _ in group])
        windows = np.stack([window for _, window, _ in group])
        resolved = _certify(reads, windows, diagonal, bandwidth, scheme)
        swept = [k for k, result in enumerate(resolved) if result is None]
        if swept:
            fit = max(1, STACK_BYTE_BUDGET
                      // plane_bytes(n, m, diagonal, bandwidth, scheme))
            count = -(-len(swept) // fit)  # sweeps needed (ceiling)
            size = -(-len(swept) // count)  # problems in each, evenly
            for start in range(0, len(swept), size):
                rows = swept[start:start + size]
                stack = align_banded(reads[rows], windows[rows],
                                     scheme=scheme, diagonal=diagonal,
                                     bandwidth=bandwidth)
                for k, result in zip(rows, stack):
                    resolved[k] = result
        for (_read, _window, members), result in zip(group, resolved):
            for index, left in members:
                results[index] = result.shifted(left) if left else result
    return results


def _certify(reads: np.ndarray, windows: np.ndarray, diagonal: int,
             bandwidth: int, scheme: ScoringScheme
             ) -> List[Optional[AlignmentResult]]:
    """The ungapped certificate (module docstring) over ``(B, n)`` reads
    in ``(B, m)`` windows of one shape: each problem's result where it
    holds, else ``None``.  Only the problems whose own diagonal passes
    the rule are scanned over the whole band."""
    count, n = reads.shape
    m = windows.shape[1]
    resolved: List[Optional[AlignmentResult]] = [None] * count
    lowest = max(diagonal - bandwidth, 0)
    highest = min(diagonal + bandwidth, m - n)
    if not n or not lowest <= diagonal <= highest:
        return resolved
    # A diagonal with k mismatches scores perfect - loss * k; a gap costs
    # at least the margin.
    loss = scheme.match + scheme.mismatch
    margin = scheme.gap_open + scheme.gap_extend
    own = n - np.count_nonzero(reads == windows[:, diagonal:diagonal + n],
                               axis=1)
    hopeful = np.flatnonzero(loss * own < margin)
    if not hopeful.size:
        return resolved
    perfect = scheme.perfect_score(n)
    cells = band_rows(n, m, diagonal, bandwidth)[2]
    span = highest - lowest + 1
    size = max(1, STACK_BYTE_BUDGET // (span * n))
    for start in range(0, hopeful.size, size):
        chosen = hopeful[start:start + size]
        # equal[b, d, i]: read base i against the window on diagonal
        # lowest + d.  Its best diagonal beats the own one, so it holds.
        equal = sliding_window_view(windows[chosen], n, axis=1)[
            :, lowest:highest + 1] == reads[chosen, None, :]
        lost = loss * (n - np.count_nonzero(equal, axis=2))
        best = lost.argmin(axis=1)  # the leftmost best
        ops = _OP_LETTERS[equal[np.arange(chosen.size), best].view(np.uint8)]
        for k, d, lost_k, row in zip(chosen.tolist(), best.tolist(),
                                     lost.min(axis=1).tolist(), ops):
            resolved[k] = AlignmentResult._ungapped(
                perfect - lost_k, lowest + d, cells, row.tobytes())
    return resolved
