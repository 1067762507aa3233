"""Affine-gap dynamic-programming alignment (Gotoh) with traceback.

The "computationally expensive DP operations" the paper works to avoid
(§1): the baseline mapper's alignment stage, GenPair's DP fallbacks (Fig 10)
and the oracle for Light Alignment.  Every result carries ``cells``, the DP
cells computed, which the hardware model turns into GenDP MCUPS (§7.4).

One numpy kernel, :func:`gotoh_stack`, serves every aligner: a banded
semiglobal alignment of the whole read that ends in the band's cells of
the last row (a band over the whole matrix aligns the read anywhere in
its window).
With ``open = gap_open + gap_extend``, ``ext = gap_extend``::

    E[i][j] = max(H[i][j-1] - open, E[i][j-1] - ext)     gap in the read
    F[i][j] = max(H[i-1][j] - open, F[i-1][j] - ext)     gap in the reference
    H[i][j] = max(H[i-1][j-1] + s(i, j), E[i][j], F[i][j])

*Stacked, row-wise.*  Rows are swept over ``B`` problems of one shape
``(n, m, diagonal, bandwidth)``, every operation on a ``(columns, B)`` slab:
a row's interpreter cost is paid once per stack.  In band coordinates
(column ``c`` of row ``i`` is matrix column ``i + shift + c``) the diagonal
and ``F`` terms are slices of the previous row, and storage is
``(n + 1) x (diagonals + 2) x B`` whatever the window.  Every row runs to
the band's last column, past column ``m`` where the band outruns the
window: a cell there feeds only cells right of ``m``, never a matrix cell
or its traceback bits.  So rows differ only where column 0 clips their
start, and each run of rows that start alike is sliced once per plane
into 3-D views that the row loop walks in step (``zip`` along axis 0):
a row pays for its ufunc calls, not for cutting views.

*E as a scan.*  Unrolled, ``E[j] = max_{k<j}(H[k] - open - ext*(j-1-k))``.
Opening from a cell whose ``H`` came from ``E`` never beats extending that
``E`` (``open >= ext``), so ``G[k] = max(diag[k], F[k])``, known before the
row's ``E``, can stand for ``H[k]``: ``E[j] = cummax_{k<j}(G[k] + ext*k) -
open - ext*(j-1)``, one ``np.maximum.accumulate``, exact in integers.

*Pointers after the sweep.*  Recording them per row would double the small
per-row operations.  ``H``, ``E``, ``F`` are kept and the traceback bits
derived matrix-wide with the scalar loop's own comparisons (``open >= ext``
opens; origin priority diag > E > F), so every tie-break is the scalar one:
excluded cells hold a sentinel (*plane types*) and a value on a traceback
path is a real score, so no comparison there ties two sentinels.  The scalar loops are the
test oracle (``tests/oracles/align.py``).

*Plane types.*  The planes take the narrowest integer type that holds
every score of the problem next to the excluded cells' sentinel, judged by
a ``bound`` on any value a sweep computes (``n`` substitutions and two
gap runs across the matrix): int16 with a ``-2**14`` sentinel when the
bound is below ``2**13`` (every chain, candidate and narrow rescue band
of a 150-base read), int32 with ``NEG_INF`` below ``2**28`` (a
whole-window rescue band), int64 beyond.  A sentinel-derived value stays
below every real score and above the type's minimum, so the type never
shows in a result; int16 halves the planes' bytes, and so doubles the
problems one sweep holds at the same memory.  The substitution plane is
the equality plane scaled in place, and after the sweep holds the
diagonal sums; each pointer bit is one comparison into a reused bool
plane, scaled to its bit in place.

*Traceback on demand.*  A sweep returns each result's score, end cell and
``cells`` at once, and frees ``H``/``E``/``F``; only the uint8 pointer
plane (``n x diagonals x B`` bytes, ~0.3 MB for 64 problems of 150 x 33)
stays, shared by the sweep's results.  A result walks its traceback the
first time ``ref_start`` is read, and hands
the walk's op letters (``bytes``, one per column) to ``Cigar.from_ops``,
one regex pass, the first time ``cigar`` is:
the mappers sweep many problems per answer they keep (candidate DP every
filtered candidate, mm2 every chain and rescue band) and pay the walk
only for the answers they read.  Pickling or copying a result resolves
it and never carries the plane.  The results that
:func:`~repro.align.banded.align_problems` certifies ungapped never had a
plane: each holds its op letters (``=``/``X`` from its equality row) and
builds its ``Cigar`` the same way, on first read.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..genome.cigar import Cigar
from .scoring import ScoringScheme

#: Effectively minus infinity for DP initialization.
NEG_INF = -(10 ** 9)

# Traceback bits of one kernel cell, and ``bytes.translate`` tables over
# them: does a diagonal run stop here; the op letter of a diagonal move.
_H_FROM_E = 1
_H_FROM_F = 2
_E_EXTENDS = 4
_F_EXTENDS = 8
_BASES_EQUAL = 16
_RUN_STOPS = bytes(bool(code & (_H_FROM_E | _H_FROM_F))
                   for code in range(256))
_MATCH_OP = bytes(ord("=" if code & _BASES_EQUAL else "X")
                  for code in range(256))


class _Pointers(NamedTuple):
    """One sweep's traceback bits, shared by its results: ``codes[i - 1,
    c, b]`` is cell ``(i, c)`` of problem ``b``."""

    codes: np.ndarray
    width: int


class AlignmentResult:
    """Outcome of one pairwise alignment of a whole read.

    ``ref_start``/``ref_end`` delimit the reference span consumed (relative
    to the window passed in).  ``cells`` counts DP cells computed and feeds
    the MCUPS accounting of the hardware model.

    Built with all five values, a result is eager.  The kernel's results
    hold their sweep's pointer plane instead of ``ref_start`` and
    ``cigar``, and resolve them on first read (module docstring); an
    ungapped one holds its op letters and builds ``cigar`` on first
    read.
    """

    __slots__ = ("score", "ref_end", "cells", "_ref_start", "_cigar",
                 "_ops", "_pending")

    def __init__(self, score: int, cigar: Cigar, ref_start: int,
                 ref_end: int, cells: int) -> None:
        self.score, self.ref_end, self.cells = score, ref_end, cells
        self._ref_start = ref_start
        self._cigar: Optional[Cigar] = cigar
        self._ops: Optional[bytes] = None
        #: ``(pointers, problem, end column j, end band column c)`` until
        #: the walk (which starts in the last row); ``_ref_start`` holds
        #: the span's shift till then.
        self._pending: Optional[tuple] = None

    @classmethod
    def _traced(cls, score: int, ref_end: int, cells: int,
                pending: tuple) -> "AlignmentResult":
        result = cls(score, None, 0, ref_end, cells)
        result._pending = pending
        return result

    @classmethod
    def _ungapped(cls, score: int, ref_start: int, cells: int,
                  ops: bytes) -> "AlignmentResult":
        """A result with no gap: one op letter per read base."""
        result = cls(score, None, ref_start, ref_start + len(ops), cells)
        result._ops = ops
        return result

    def _walk(self) -> None:
        (codes, width), problem, end_j, end_c = self._pending
        self._pending = None
        self._ops, start_j = _traceback(codes[:, :, problem].tobytes(),
                                        width, len(codes), end_j, end_c)
        self._ref_start += start_j

    @property
    def ref_start(self) -> int:
        if self._pending is not None:
            self._walk()
        return self._ref_start

    @property
    def cigar(self) -> Cigar:
        if self._cigar is None:
            if self._pending is not None:
                self._walk()
            self._cigar, self._ops = Cigar.from_ops(self._ops), None
        return self._cigar

    def shifted(self, offset: int) -> "AlignmentResult":
        """This alignment with its reference span ``offset`` bases to the
        right (a band cut from a wider window), still unresolved if this
        one is."""
        moved = AlignmentResult.__new__(AlignmentResult)
        for slot in self.__slots__:
            setattr(moved, slot, getattr(self, slot))
        moved._ref_start += offset
        moved.ref_end += offset
        return moved

    def _values(self) -> tuple:
        return (self.score, self.cigar, self.ref_start, self.ref_end,
                self.cells)

    def __reduce__(self):
        return AlignmentResult, self._values()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlignmentResult):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return ("AlignmentResult(score={}, cigar={!r}, ref_start={}, "
                "ref_end={}, cells={})".format(*self._values()))


def gotoh_stack(reads: np.ndarray, refs: np.ndarray, scheme: ScoringScheme,
                diagonal: int, bandwidth: int) -> List[AlignmentResult]:
    """Banded Gotoh of ``(B, n)`` reads in ``(B, m)`` windows (method:
    module docstring).  Row ``i``'s cells, the ones ``cells`` counts, are
    columns ``max(1, i + diagonal - bandwidth)`` to ``min(m, i + diagonal
    + bandwidth)``; an alignment ends in the leftmost best of the last
    row's cells."""
    stack, n = reads.shape
    m = refs.shape[1]
    if n == 0:
        return [AlignmentResult(0, Cigar(()), 0, 0, 0)] * stack
    lo, hi, cells, hopeless = band_rows(n, m, diagonal, bandwidth)
    if hopeless:  # the band leaves the window
        return [AlignmentResult(NEG_INF, Cigar(()), 0, 0, cells)] * stack

    # Band coordinates over the diagonals that hold a cell, one pad
    # column each side: column c of row i is matrix column i + shift + c.
    low, width = _band_span(n, m, diagonal, bandwidth)
    shift = low - 1
    firsts = (lo - np.arange(1, n + 1) - shift).tolist()
    gap_open, extend = scheme.gap_open, scheme.gap_extend
    dtype, sentinel = _plane_type(n, m, width, scheme)
    # Stack innermost: a row's band is one contiguous block.
    h_all, e_all, f_all = np.full((3, n + 1, width + 2, stack), sentinel,
                                  dtype=dtype)
    h_all[0, max(0, -shift):m - shift + 1] = 0  # free reference prefix
    # Column 0 where the band reaches it: the read so far inserted.
    edge = np.arange(1, min(n, -shift) + 1)
    h_all[edge, -edge - shift] = f_all[edge, -edge - shift] = \
        -(gap_open + extend * edge)[:, None]

    # equal[i-1, c-1, b]: read base i against band column c's reference
    # base, the window padded so that every column has one; stored stack
    # innermost like the planes, so that a row's slice is one block.
    left = max(0, -low)
    padded = np.full((stack, left + m + max(0, n + shift + width - m)),
                     255, dtype=np.uint8)
    padded[:, left:left + m] = refs
    equal = np.empty((n, width, stack), dtype=bool)
    np.equal(sliding_window_view(padded, width, axis=1).transpose(1, 2, 0)[
        low + left:low + left + n], reads.T[:, None, :], out=equal)
    substitution = equal.astype(dtype)
    substitution *= dtype(scheme.match + scheme.mismatch)
    substitution -= dtype(scheme.mismatch)

    ramp = (extend * np.arange(width, dtype=dtype))[:, None]
    open_ramp = ramp + (gap_open + extend)
    # Rows run to the band's last column, z - 1 (module docstring).  The
    # gap costs are scalars of the plane type: a Python int would cost
    # each ufunc call a conversion.
    row_open, row_extend = dtype(gap_open), dtype(extend)
    z = width + 1
    for top, end in _runs(firsts):
        a = firsts[top - 1]
        gaps, opens = ramp[:z - a], open_ramp[:z - a]
        for f, f_up, h_up, h_up_right, sub, h, h_left, e in zip(
                f_all[top:end, a:z], f_all[top - 1:end - 1, a + 1:z + 1],
                h_all[top - 1:end - 1, a:z],
                h_all[top - 1:end - 1, a + 1:z + 1],
                substitution[top - 1:end - 1, a - 1:z - 1],
                h_all[top:end, a:z], h_all[top:end, a - 1:z - 1],
                e_all[top:end, a:z]):
            np.subtract(h_up_right, row_open, out=f)
            np.maximum(f, f_up, out=f)
            f -= row_extend
            np.add(h_up, sub, out=h)  # G = max(diag, F) until E is known
            np.maximum(h, f, out=h)
            np.add(h_left, gaps, out=e)
            np.maximum.accumulate(e, axis=0, out=e)
            e -= opens
            np.maximum(h, e, out=h)

    # Traceback bits, rows 1..n; H - (gap_open + ext) >= X - ext opens.
    band = h_all[1:, 1:width + 1]
    diag = np.add(h_all[:-1, 1:width + 1], substitution, out=substitution)
    e = e_all[1:, 1:width + 1]
    codes = np.empty((n, width, stack), dtype=np.uint8)
    np.greater(e, diag, out=codes.view(bool))  # _H_FROM_E is 1
    flag = equal  # its last read; then each comparison's bool plane
    _set_bit(codes, flag, _BASES_EQUAL)
    np.maximum(diag, e, out=diag)
    _set_bit(codes, np.greater(f_all[1:, 1:width + 1], diag, out=flag),
             _H_FROM_F)
    np.subtract(h_all[1:, :width], gap_open, out=diag)
    _set_bit(codes, np.less(diag, e_all[1:, :width], out=flag), _E_EXTENDS)
    np.subtract(h_all[:-1, 2:], gap_open, out=diag)
    _set_bit(codes, np.less(diag, f_all[:-1, 2:], out=flag), _F_EXTENDS)
    # The leftmost best of the last row's cells (columns up to m).
    first = firsts[-1] - 1
    end_cols = band[-1, first:int(hi[-1]) - n - shift].argmax(axis=0) \
        + first
    scores = band[-1, end_cols, np.arange(stack)].tolist()
    pointers = _Pointers(codes, width)
    results = []
    for b, (score, end_c) in enumerate(zip(scores, end_cols.tolist())):
        end_j = n + low + end_c
        results.append(AlignmentResult._traced(
            score, end_j, cells, (pointers, b, end_j, end_c)))
    return results


def band_rows(n: int, m: int, diagonal: int, bandwidth: int
              ) -> Tuple[np.ndarray, np.ndarray, int, bool]:
    """``(lo, hi, cells, hopeless)`` of an ``n x m`` problem's band
    (``n >= 1``): row ``i`` holds columns ``lo[i - 1]`` to ``hi[i - 1]``;
    ``cells`` counts them up to the first row the band has left the
    window, and ``hopeless`` says whether it left."""
    rows = np.arange(1, n + 1)
    lo = np.maximum(1, rows + (diagonal - bandwidth))
    hi = np.minimum(m, rows + (diagonal + bandwidth))
    dead = np.flatnonzero(lo > hi)
    cells = int((hi - lo + 1)[:dead[0] if dead.size else n].sum())
    return lo, hi, cells, bool(dead.size)


def _runs(firsts: List[int]) -> List[Tuple[int, int]]:
    """``(top, end)`` of each run of consecutive rows ``top..end - 1``
    (1-based) whose first band columns are equal."""
    runs, top = [], 1
    for row in range(1, len(firsts)):
        if firsts[row] != firsts[row - 1]:
            runs.append((top, row + 1))
            top = row + 1
    runs.append((top, len(firsts) + 1))
    return runs


def _set_bit(codes: np.ndarray, flag: np.ndarray, bit: int) -> None:
    """``codes |= bit`` where ``flag``; ``flag``'s bytes are scaled to the
    bit in place, so no temporary is made."""
    bits = flag.view(np.uint8)
    bits *= np.uint8(bit)
    codes |= bits


def _band_span(n: int, m: int, diagonal: int, bandwidth: int
               ) -> Tuple[int, int]:
    """``(low, width)``: the first diagonal of the band that holds a cell
    of an ``n x m`` matrix, and how many diagonals do."""
    low = max(diagonal - bandwidth, -n)
    return low, min(diagonal + bandwidth, m - 1) - low + 1


def _plane_type(n: int, m: int, width: int, scheme: ScoringScheme
                ) -> Tuple[type, int]:
    """The narrowest planes that hold every score of the problem next to
    the excluded cells' sentinel, and that sentinel."""
    bound = n * max(scheme.match, scheme.mismatch) \
        + 2 * (scheme.gap_open + scheme.gap_extend * (n + m + width))
    if bound < 2 ** 13:
        return np.int16, -2 ** 14
    return (np.int32 if bound < 2 ** 28 else np.int64), NEG_INF


def plane_bytes(n: int, m: int, diagonal: int, bandwidth: int,
                scheme: ScoringScheme) -> int:
    """Bytes of the planes one problem adds to a :func:`gotoh_stack`
    sweep: ``H``/``E``/``F`` and substitution (which then holds the
    diagonal sums) in the plane type, and the bool and pointer planes."""
    _low, width = _band_span(n, m, diagonal, bandwidth)
    width = max(width, 1)
    itemsize = np.dtype(_plane_type(n, m, width, scheme)[0]).itemsize
    return itemsize * (3 * (n + 1) * (width + 2) + n * width) \
        + 2 * n * width


def _traceback(codes: bytes, width: int, i: int, j: int, c: int
               ) -> Tuple[bytes, int]:
    """Walk one problem's pointer bits from cell ``(i, j)``, in band column
    ``c``, back to row 0: the op letters in alignment order and the
    column the walk stopped in.  A diagonal move keeps the band column,
    so a diagonal run is read off that column of ``codes`` in two
    ``bytes`` operations; gaps walk cell by cell."""
    pieces: List[bytes] = []  # the alignment's end first
    state = "H"
    while i > 0 and j > 0:
        if state == "H":
            reach = min(i, j)  # a diagonal run ends at row 0 or column 0
            column = codes[c + (i - reach) * width:i * width:width]
            run = reach - 1 - column.translate(_RUN_STOPS).rfind(1)
            pieces.append(column[reach - run:].translate(_MATCH_OP)[::-1])
            i -= run
            j -= run
            if run < reach:
                state = "F" if column[reach - run - 1] & _H_FROM_F else "E"
            continue
        bits = codes[(i - 1) * width + c]
        if state == "E":
            pieces.append(b"D")
            j, c, extends = j - 1, c - 1, bits & _E_EXTENDS
        else:  # state == "F"
            pieces.append(b"I")
            i, c, extends = i - 1, c + 1, bits & _F_EXTENDS
        if not extends:
            state = "H"
    pieces.append(b"I" * i)  # stopped in column 0: the rest is inserted
    return b"".join(pieces)[::-1], j
