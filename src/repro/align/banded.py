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
* *The budget.*  A shape is cut into the fewest equal sweeps whose planes
  fit :data:`STACK_BYTE_BUDGET` (:func:`~repro.align.dp.plane_bytes`),
  which is where the curve above has flattened: 65 int32 or 119 int16
  problems of 150 x 33.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dp import AlignmentResult, gotoh_stack, plane_bytes
from .scoring import DEFAULT_SCHEME, ScoringScheme


#: Most bytes of transient planes one sweep of :func:`align_problems`
#: allocates: about what 64 int32 problems of 150 x 33 take, where the
#: B-curve has flattened.
STACK_BYTE_BUDGET = 7 * 2 ** 20


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
    its span, each distinct problem swept once, and each shape in the
    fewest sweeps that fit :data:`STACK_BYTE_BUDGET` (module docstring)."""
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
        fit = max(1, STACK_BYTE_BUDGET
                  // plane_bytes(n, m, diagonal, bandwidth, scheme))
        count = -(-len(group) // fit)  # sweeps needed (ceiling)
        size = -(-len(group) // count)  # problems in each, evenly
        for start in range(0, len(group), size):
            sweep = group[start:start + size]
            stack = align_banded(np.stack([read for read, _, _ in sweep]),
                                 np.stack([window for _, window, _
                                           in sweep]),
                                 scheme=scheme, diagonal=diagonal,
                                 bandwidth=bandwidth)
            for (_read, _window, members), result in zip(sweep, stack):
                for index, left in members:
                    results[index] = result.shifted(left) if left \
                        else result
    return results
