"""Banded affine-gap alignment (Banded Smith-Waterman, as in GenDP).

GenDP — the DP fallback engine GenPairX integrates with — implements
Banded Smith-Waterman (§7.4).  This is the public entry to the same banded
semiglobal alignment: cells are computed only within ``bandwidth``
diagonals of the *expected diagonal*, the offset at which a candidate
location puts the read in its window.  Edits shift an alignment by a few
bases (Table 1 tops out at 5-base gaps), so a narrow band loses nothing.

:func:`repro.align.dp.gotoh_stack` does the work (its module has the
recurrence, the prefix-max scan and the derived traceback).  A row costs
it a fixed number of numpy calls however many problems it sweeps, so the
cost of a problem falls with the stack it rides in until the slabs leave
the cache.  Measured for the 150 x 33-cell band of a chain or candidate
alignment, ms per problem on one CPU: 2.27 alone, 1.54 at B=2, 0.46 at
B=8, 0.28 at B=16, 0.21 at B=32, 0.17 at B=64, 0.14 at B=128 — and no
better beyond, at ~120 KB of transient ``H``/``E``/``F``, substitution
and pointer planes per problem.  So :func:`align_banded` takes one problem
(1-D arrays) or a stack of equal shape (2-D), and :func:`stack_problems`
builds stacks: the mappers hand it every problem of a chunk, and it cuts
each shape into sweeps of at most :data:`STACK_CELL_BUDGET` cells, which
is where the curve has flattened and the planes still cost a few MB.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dp import AlignmentResult, gotoh_stack
from .scoring import DEFAULT_SCHEME, ScoringScheme


#: Most band cells one sweep of :func:`stack_problems` holds: 64 problems
#: of 150 x 33, ~8 MB of transient planes.
STACK_CELL_BUDGET = 320_000


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


def stack_problems(problems: Sequence[Optional[Tuple[np.ndarray, np.ndarray,
                                                     int, int]]]
                   ) -> List[tuple]:
    """Group ``(read, window, diagonal, bandwidth)`` problems by shape
    into stacked :func:`align_banded` arguments ``(members, reads, windows,
    diagonal, bandwidth)``; ``members`` are the input positions.  A shape
    with more band cells than :data:`STACK_CELL_BUDGET` is cut into the
    fewest equal sweeps that fit (one problem always does).  A ``None``
    (a candidate with no window) joins no stack."""
    groups: Dict[Tuple[int, int, int, int], List[int]] = {}
    for index, problem in enumerate(problems):
        if problem is not None:
            read, ref, diagonal, bandwidth = problem
            groups.setdefault((len(read), len(ref), diagonal, bandwidth),
                              []).append(index)
    sweeps = []
    for (n, m, diagonal, bandwidth), group in groups.items():
        cells = max(1, n * min(m, 2 * bandwidth + 1))  # an upper bound
        fit = max(1, STACK_CELL_BUDGET // cells)
        count = -(-len(group) // fit)  # sweeps needed (ceiling)
        size = -(-len(group) // count)  # problems in each, evenly
        for start in range(0, len(group), size):
            members = group[start:start + size]
            sweeps.append((members,
                           np.stack([problems[k][0] for k in members]),
                           np.stack([problems[k][1] for k in members]),
                           diagonal, bandwidth))
    return sweeps
