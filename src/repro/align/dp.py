"""Affine-gap dynamic-programming alignment (Gotoh) with traceback.

The "computationally expensive DP operations" the paper works to avoid
(§1): the baseline mapper's alignment stage, GenPair's DP fallbacks (Fig 10)
and the oracle for Light Alignment.  Every result carries ``cells``, the DP
cells computed, which the hardware model turns into GenDP MCUPS (§7.4).

One numpy kernel, :func:`gotoh_stack`, serves the banded, the unbanded
semiglobal and the local aligner (which clamps ``H`` at 0).  With ``open =
gap_open + gap_extend``, ``ext = gap_extend``::

    E[i][j] = max(H[i][j-1] - open, E[i][j-1] - ext)     gap in the read
    F[i][j] = max(H[i-1][j] - open, F[i-1][j] - ext)     gap in the reference
    H[i][j] = max(H[i-1][j-1] + s(i, j), E[i][j], F[i][j])

*Stacked, row-wise.*  Rows are swept over ``B`` problems of one shape
``(n, m, diagonal, bandwidth)``, every operation on a ``(columns, B)`` slab:
a row's interpreter cost is paid once per stack.  In band coordinates
(column ``c`` of row ``i`` is matrix column ``i + shift + c``) the diagonal
and ``F`` terms are slices of the previous row, and storage is
``(n + 1) x (diagonals + 2) x B`` whatever the window.

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
the equality plane scaled in place, and each pointer bit is one
comparison into a reused bool plane, scaled to its bit in place.

*Traceback on demand.*  A sweep returns each result's score, end cell and
``cells`` at once, and frees ``H``/``E``/``F``; only the uint8 pointer
plane (``n x diagonals x B`` bytes, ~0.3 MB for 64 problems of 150 x 33)
stays, shared by the sweep's results.  A result walks its traceback the
first time ``ref_start`` or ``read_start`` is read, and run-length encodes
the walk's op letters into a ``Cigar`` the first time ``cigar`` is:
the mappers sweep many problems per answer they keep (candidate DP every
filtered candidate, mm2 every chain and rescue band) and pay the walk
only for the answers they read.  Pickling or copying a result resolves
it and never carries the plane.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..genome.cigar import Cigar
from .scoring import DEFAULT_SCHEME, ScoringScheme

#: Effectively minus infinity for DP initialization.
NEG_INF = -(10 ** 9)

# Traceback bits of one kernel cell, and ``bytes.translate`` tables over
# them: does a diagonal run stop here; the op letter of a diagonal move.
_H_FROM_E = 1
_H_FROM_F = 2
_E_EXTENDS = 4
_F_EXTENDS = 8
_BASES_EQUAL = 16
_H_STARTS = 32  # local alignment: the score was clamped at 0 here
_RUN_STOPS = bytes(bool(code & (_H_FROM_E | _H_FROM_F | _H_STARTS))
                   for code in range(256))
_MATCH_OP = bytes(ord("=" if code & _BASES_EQUAL else "X")
                  for code in range(256))


class _Pointers(NamedTuple):
    """One sweep's traceback bits, shared by its results: ``codes[i - 1,
    c, b]`` is cell ``(i, c)`` of problem ``b``."""

    codes: np.ndarray
    width: int
    n: int
    local: bool


class AlignmentResult:
    """Outcome of one pairwise alignment.

    ``ref_start``/``ref_end`` delimit the reference span consumed (relative
    to the window passed in); ``read_start``/``read_end`` likewise for the
    read (non-trivial only for local alignment).  ``cells`` counts DP cells
    computed and feeds the MCUPS accounting of the hardware model.

    Built with all seven values, a result is eager.  The kernel's results
    hold their sweep's pointer plane instead of ``ref_start``,
    ``read_start`` and ``cigar``, and resolve them on first read (module
    docstring).
    """

    __slots__ = ("score", "ref_end", "read_end", "cells", "_ref_start",
                 "_read_start", "_cigar", "_ops", "_pending")

    def __init__(self, score: int, cigar: Cigar, ref_start: int,
                 ref_end: int, read_start: int, read_end: int,
                 cells: int) -> None:
        self.score, self.ref_end = score, ref_end
        self.read_end, self.cells = read_end, cells
        self._ref_start, self._read_start = ref_start, read_start
        self._cigar: Optional[Cigar] = cigar
        self._ops: Optional[bytes] = None
        #: ``(pointers, problem, end column j, end band column c)`` until
        #: the walk; ``_ref_start`` holds the span's shift till then.
        self._pending: Optional[tuple] = None

    @classmethod
    def _traced(cls, score: int, ref_end: int, read_end: int, cells: int,
                pending: tuple) -> "AlignmentResult":
        result = cls(score, None, 0, ref_end, 0, read_end, cells)
        result._pending = pending
        return result

    def _walk(self) -> None:
        (codes, width, n, local), problem, end_j, end_c = self._pending
        self._pending = None
        ops, start_i, start_j = _traceback(
            codes[:, :, problem].tobytes(), width, self.read_end, end_j,
            end_c, local)
        self._ops = b"S" * start_i + ops + b"S" * (n - self.read_end)
        self._read_start = start_i
        self._ref_start += start_j

    @property
    def ref_start(self) -> int:
        if self._pending is not None:
            self._walk()
        return self._ref_start

    @property
    def read_start(self) -> int:
        if self._pending is not None:
            self._walk()
        return self._read_start

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
                self.read_start, self.read_end, self.cells)

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
                "ref_end={}, read_start={}, read_end={}, cells={})"
                .format(*self._values()))


def gotoh_stack(reads: np.ndarray, refs: np.ndarray, scheme: ScoringScheme,
                diagonal: int, bandwidth: int,
                ends: str = "band") -> List[AlignmentResult]:
    """Banded Gotoh of ``(B, n)`` reads in ``(B, m)`` windows (method:
    module docstring).  Row ``i`` computes columns ``max(1, i + diagonal -
    bandwidth)`` to ``min(m, i + diagonal + bandwidth)``.  ``ends`` says
    where an alignment may end: ``"band"``, the last row's band cells;
    ``"row"``, also column 0 (the read all inserted: the unbanded
    aligner's full last row); ``"local"``, anywhere, scores clamped at 0
    and the read's unaligned ends soft-clipped (Smith-Waterman)."""
    local = ends == "local"
    stack, n = reads.shape
    m = refs.shape[1]
    if n == 0 or (local and m == 0):
        return [AlignmentResult(0, Cigar(()), 0, 0, 0, 0, 0)] * stack
    rows = np.arange(1, n + 1)
    lo = np.maximum(1, rows + (diagonal - bandwidth))
    hi = np.minimum(m, rows + (diagonal + bandwidth))
    dead = np.flatnonzero(lo > hi)
    cells = int((hi - lo + 1)[:dead[0] if dead.size else n].sum())
    if dead.size:  # the band leaves the window: alignment is hopeless
        return [AlignmentResult(NEG_INF, Cigar(()), 0, 0, 0, n,
                                cells)] * stack

    # Band coordinates over the diagonals that hold a cell, one pad
    # column each side: column c of row i is matrix column i + shift + c.
    low, width = _band_span(n, m, diagonal, bandwidth)
    shift = low - 1
    firsts = (lo - rows - shift).tolist()
    stops = (hi - rows - shift + 1).tolist()
    gap_open, extend = scheme.gap_open, scheme.gap_extend
    dtype, sentinel = _plane_type(n, m, width, scheme)
    # Stack innermost: a row's band is one contiguous block.
    h_all, e_all, f_all = np.full((3, n + 1, width + 2, stack), sentinel,
                                  dtype=dtype)
    h_all[0, max(0, -shift):m - shift + 1] = 0  # free reference prefix
    # Column 0 where the band reaches it: the read so far inserted, or
    # (local) not begun.
    edge = np.arange(1, min(n, -shift) + 1)
    if local:
        h_all[edge, -edge - shift] = 0
    else:
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
    for i in range(1, n + 1):
        a, z = firsts[i - 1], stops[i - 1]
        h_prev, h_row = h_all[i - 1], h_all[i]
        f = f_all[i, a:z]
        np.subtract(h_prev[a + 1:z + 1], gap_open, out=f)
        np.maximum(f, f_all[i - 1, a + 1:z + 1], out=f)
        f -= extend
        h = h_row[a:z]  # holds G = max(diag, F) until E is known
        np.add(h_prev[a:z], substitution[i - 1, a - 1:z - 1], out=h)
        np.maximum(h, f, out=h)
        if local:
            np.maximum(h, 0, out=h)
        e = e_all[i, a:z]
        np.add(h_row[a - 1:z - 1], ramp[:z - a], out=e)
        np.maximum.accumulate(e, axis=0, out=e)
        e -= open_ramp[:z - a]
        np.maximum(h, e, out=h)

    # Traceback bits, rows 1..n; H - (gap_open + ext) >= X - ext opens.
    band = h_all[1:, 1:width + 1]
    diag = h_all[:-1, 1:width + 1] + substitution
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
    if local:  # the first best cell, row by row; a clamped cell starts
        _set_bit(codes, np.less_equal(band, 0, out=flag), _H_STARTS)
        end_rows, end_cols = np.divmod(
            band.reshape(n * width, stack).argmax(axis=0), width)
    else:  # the leftmost best cell of the last row
        first = max(firsts[-1] - 1 - (ends == "row"), 0)
        end_rows = np.full(stack, n - 1)
        end_cols = band[-1, first:stops[-1] - 1].argmax(axis=0) + first

    scores = band[end_rows, end_cols, np.arange(stack)].tolist()
    end_rows += 1
    pointers = _Pointers(codes, width, n, local)
    results = []
    for b, (score, end_i, end_c) in enumerate(zip(
            scores, end_rows.tolist(), end_cols.tolist())):
        if local and score == 0:
            results.append(AlignmentResult(0, Cigar(()), 0, 0, 0, 0, cells))
            continue
        end_j = end_i + low + end_c
        results.append(AlignmentResult._traced(
            score, end_j, end_i, cells, (pointers, b, end_j, end_c)))
    return results


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
    sweep at its peak: ``H``/``E``/``F``, substitution and one diagonal
    temporary in the plane type, the bool and pointer planes."""
    _low, width = _band_span(n, m, diagonal, bandwidth)
    width = max(width, 1)
    itemsize = np.dtype(_plane_type(n, m, width, scheme)[0]).itemsize
    return itemsize * (3 * (n + 1) * (width + 2) + 2 * n * width) \
        + 2 * n * width


def _traceback(codes: bytes, width: int, i: int, j: int, c: int,
               local: bool) -> Tuple[bytes, int, int]:
    """Walk one problem's pointer bits from cell ``(i, j)``, in band column
    ``c``, back to row 0 / column 0 (or, ``local``, a clamped cell): the op
    letters in alignment order and the cell the walk stopped in.  A
    diagonal move keeps the band column, so a diagonal run is read off
    that column of ``codes`` in two ``bytes`` operations; gaps walk cell
    by cell."""
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
                bits = column[reach - run - 1]
                if bits & _H_STARTS:
                    break
                state = "F" if bits & _H_FROM_F else "E"
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
    if i > 0 and not j and not local:  # column 0: the rest is inserted
        pieces.append(b"I" * i)
        i = 0
    return b"".join(pieces)[::-1], i, j


def align_semiglobal(read: np.ndarray, ref: np.ndarray,
                     scheme: ScoringScheme = DEFAULT_SCHEME
                     ) -> AlignmentResult:
    """Align ``read`` end-to-end against a free-flank reference window:
    the kernel with a band that covers the whole matrix."""
    read = np.asarray(read, dtype=np.uint8)
    ref = np.asarray(ref, dtype=np.uint8)
    n, m = len(read), len(ref)
    if n and not m:
        return AlignmentResult(-scheme.gap_cost(n), Cigar(((n, "I"),)),
                               0, 0, 0, n, 0)
    return gotoh_stack(read[None, :], ref[None, :], scheme, diagonal=0,
                       bandwidth=n + m, ends="row")[0]


def align_local(read: np.ndarray, ref: np.ndarray,
                scheme: ScoringScheme = DEFAULT_SCHEME) -> AlignmentResult:
    """Smith-Waterman local alignment; unaligned read ends are soft-clipped."""
    read = np.asarray(read, dtype=np.uint8)
    ref = np.asarray(ref, dtype=np.uint8)
    return gotoh_stack(read[None, :], ref[None, :], scheme, diagonal=0,
                       bandwidth=len(read) + len(ref), ends="local")[0]
