"""Scalar Gotoh loops: the oracle the vectorized kernel is tested against.

These are the pure-Python banded, unbanded semiglobal and local aligners
that ``repro.align`` shipped before the stacked numpy kernel replaced them
(one cell at a time, explicit pointer bytearrays, scalar tracebacks).
They define the contract the kernel must reproduce exactly: score,
CIGAR, reference span, ``cells`` and every tie-break (``open >= ext``
opens a gap; origin priority diag > E > F; the leftmost best end
column).  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.align.dp import NEG_INF, AlignmentResult
from repro.align.scoring import DEFAULT_SCHEME, ScoringScheme
from repro.genome.cigar import Cigar

_FROM_DIAG = 0
_FROM_E = 1  # deletion state
_FROM_F = 2  # insertion state


def align_banded(read: np.ndarray, ref: np.ndarray,
                 scheme: ScoringScheme = DEFAULT_SCHEME,
                 diagonal: int = 0, bandwidth: int = 16):
    """Banded semiglobal alignment of ``read`` within a reference window,
    one cell at a time.  Like the kernel's public entry, 2-D inputs are a
    stack of problems and return a list of results."""
    if np.ndim(read) == 2:
        return [align_banded(one_read, one_ref, scheme, diagonal, bandwidth)
                for one_read, one_ref in zip(read, ref)]
    read_list = np.asarray(read, dtype=np.uint8).tolist()
    ref_list = np.asarray(ref, dtype=np.uint8).tolist()
    n, m = len(read_list), len(ref_list)
    if n == 0:
        return AlignmentResult(0, Cigar(()), 0, 0, 0, 0, 0)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    match, mismatch = scheme.match, scheme.mismatch
    open_cost = scheme.gap_open + scheme.gap_extend
    extend = scheme.gap_extend

    h_prev = [0] * (m + 1)  # row 0: free reference prefix
    f_prev = [NEG_INF] * (m + 1)
    ptr_h = [bytearray(m + 1) for _ in range(n + 1)]
    ptr_e = [bytearray(m + 1) for _ in range(n + 1)]
    ptr_f = [bytearray(m + 1) for _ in range(n + 1)]
    cells = 0

    prev_lo, prev_hi = 0, m  # row 0 is fully defined
    for i in range(1, n + 1):
        base = read_list[i - 1]
        lo = max(1, i + diagonal - bandwidth)
        hi = min(m, i + diagonal + bandwidth)
        if lo > hi:
            # The band leaves the window entirely; alignment is hopeless.
            return AlignmentResult(NEG_INF, Cigar(()), 0, 0, 0, n, cells)
        h_row = [NEG_INF] * (m + 1)
        f_row = [NEG_INF] * (m + 1)
        if lo == 1:
            h_row[0] = -(scheme.gap_open + extend * i)
            f_row[0] = h_row[0]
        e_val = NEG_INF
        row_ptr_h = ptr_h[i]
        row_ptr_e = ptr_e[i]
        row_ptr_f = ptr_f[i]
        for j in range(lo, hi + 1):
            open_e = h_row[j - 1] - open_cost
            ext_e = e_val - extend
            if open_e >= ext_e:
                e_val = open_e
                row_ptr_e[j] = 0
            else:
                e_val = ext_e
                row_ptr_e[j] = 1
            prev_h = h_prev[j] if prev_lo <= j <= prev_hi or i == 1 else \
                NEG_INF
            open_f = prev_h - open_cost
            ext_f = f_prev[j] - extend
            if open_f >= ext_f:
                f_row[j] = open_f
                row_ptr_f[j] = 0
            else:
                f_row[j] = ext_f
                row_ptr_f[j] = 1
            diag_h = h_prev[j - 1]
            diag = diag_h + (match if base == ref_list[j - 1] else -mismatch)
            best = diag
            origin = _FROM_DIAG
            if e_val > best:
                best = e_val
                origin = _FROM_E
            if f_row[j] > best:
                best = f_row[j]
                origin = _FROM_F
            h_row[j] = best
            row_ptr_h[j] = origin
            cells += 1
        h_prev = h_row
        f_prev = f_row
        prev_lo, prev_hi = lo, hi

    end_j = max(range(prev_lo, prev_hi + 1), key=lambda j: h_prev[j])
    score = h_prev[end_j]
    if score <= NEG_INF // 2:
        return AlignmentResult(NEG_INF, Cigar(()), 0, 0, 0, n, cells)
    cigar, start_j = _traceback(read_list, ref_list, ptr_h, ptr_e, ptr_f,
                                n, end_j, stop_at_row0=True)
    return AlignmentResult(score=score, cigar=cigar, ref_start=start_j,
                           ref_end=end_j, read_start=0, read_end=n,
                           cells=cells)


def align_semiglobal(read: np.ndarray, ref: np.ndarray,
                     scheme: ScoringScheme = DEFAULT_SCHEME
                     ) -> AlignmentResult:
    """Align ``read`` end-to-end against a free-flank reference window."""
    read_list = np.asarray(read, dtype=np.uint8).tolist()
    ref_list = np.asarray(ref, dtype=np.uint8).tolist()
    n, m = len(read_list), len(ref_list)
    if n == 0:
        return AlignmentResult(0, Cigar(()), 0, 0, 0, 0, 0)
    match, mismatch = scheme.match, scheme.mismatch
    open_cost = scheme.gap_open + scheme.gap_extend
    extend = scheme.gap_extend

    h_prev = [0] * (m + 1)
    f_prev = [NEG_INF] * (m + 1)
    ptr_h = [bytearray(m + 1) for _ in range(n + 1)]
    ptr_e = [bytearray(m + 1) for _ in range(n + 1)]
    ptr_f = [bytearray(m + 1) for _ in range(n + 1)]

    for i in range(1, n + 1):
        base = read_list[i - 1]
        h_row = [NEG_INF] * (m + 1)
        f_row = [NEG_INF] * (m + 1)
        h_row[0] = -(scheme.gap_open + extend * i)
        f_row[0] = h_row[0]
        e_val = NEG_INF
        row_ptr_h = ptr_h[i]
        row_ptr_e = ptr_e[i]
        row_ptr_f = ptr_f[i]
        for j in range(1, m + 1):
            # E: gap in the read (deletion) — depends on this row, j-1.
            open_e = h_row[j - 1] - open_cost
            ext_e = e_val - extend
            if open_e >= ext_e:
                e_val = open_e
                row_ptr_e[j] = 0
            else:
                e_val = ext_e
                row_ptr_e[j] = 1
            # F: gap in the reference (insertion) — previous row, same j.
            open_f = h_prev[j] - open_cost
            ext_f = f_prev[j] - extend
            if open_f >= ext_f:
                f_row[j] = open_f
                row_ptr_f[j] = 0
            else:
                f_row[j] = ext_f
                row_ptr_f[j] = 1
            diag = h_prev[j - 1] + (match if base == ref_list[j - 1]
                                    else -mismatch)
            best = diag
            origin = _FROM_DIAG
            if e_val > best:
                best = e_val
                origin = _FROM_E
            if f_row[j] > best:
                best = f_row[j]
                origin = _FROM_F
            h_row[j] = best
            row_ptr_h[j] = origin
        h_prev = h_row
        f_prev = f_row

    end_j = max(range(m + 1), key=lambda j: h_prev[j])
    score = h_prev[end_j]
    cigar, start_j = _traceback(read_list, ref_list, ptr_h, ptr_e, ptr_f,
                                n, end_j, stop_at_row0=True)
    return AlignmentResult(score=score, cigar=cigar, ref_start=start_j,
                           ref_end=end_j, read_start=0, read_end=n,
                           cells=n * m)


def _traceback(read_list, ref_list, ptr_h, ptr_e, ptr_f, end_i, end_j,
               stop_at_row0: bool):
    """Walk pointers from ``(end_i, end_j)`` back to row 0 / column 0."""
    ops: List[Tuple[int, str]] = []
    i, j = end_i, end_j
    state = "H"
    while i > 0:
        if j == 0:
            ops.append((i, "I"))
            break
        if state == "H":
            origin = ptr_h[i][j]
            if origin == _FROM_DIAG:
                op = "=" if read_list[i - 1] == ref_list[j - 1] else "X"
                ops.append((1, op))
                i -= 1
                j -= 1
            elif origin == _FROM_E:
                state = "E"
            else:
                state = "F"
        elif state == "E":
            ops.append((1, "D"))
            if ptr_e[i][j] == 0:
                state = "H"
            j -= 1
        else:  # state == "F"
            ops.append((1, "I"))
            if ptr_f[i][j] == 0:
                state = "H"
            i -= 1
    return Cigar.from_pairs(reversed(ops)), j


def align_local(read: np.ndarray, ref: np.ndarray,
                scheme: ScoringScheme = DEFAULT_SCHEME) -> AlignmentResult:
    """Smith-Waterman local alignment; unaligned read ends are soft-clipped."""
    read_list = np.asarray(read, dtype=np.uint8).tolist()
    ref_list = np.asarray(ref, dtype=np.uint8).tolist()
    n, m = len(read_list), len(ref_list)
    if n == 0 or m == 0:
        return AlignmentResult(0, Cigar(()), 0, 0, 0, 0, 0)
    match, mismatch = scheme.match, scheme.mismatch
    open_cost = scheme.gap_open + scheme.gap_extend
    extend = scheme.gap_extend

    h_prev = [0] * (m + 1)
    f_prev = [NEG_INF] * (m + 1)
    ptr_h = [bytearray(m + 1) for _ in range(n + 1)]
    ptr_e = [bytearray(m + 1) for _ in range(n + 1)]
    ptr_f = [bytearray(m + 1) for _ in range(n + 1)]
    # A fourth origin meaning "alignment starts here" (score clamped at 0).
    from_start = 3

    best_score, best_i, best_j = 0, 0, 0
    for i in range(1, n + 1):
        base = read_list[i - 1]
        h_row = [0] * (m + 1)
        f_row = [NEG_INF] * (m + 1)
        e_val = NEG_INF
        row_ptr_h = ptr_h[i]
        row_ptr_e = ptr_e[i]
        row_ptr_f = ptr_f[i]
        for j in range(1, m + 1):
            open_e = h_row[j - 1] - open_cost
            ext_e = e_val - extend
            if open_e >= ext_e:
                e_val = open_e
                row_ptr_e[j] = 0
            else:
                e_val = ext_e
                row_ptr_e[j] = 1
            open_f = h_prev[j] - open_cost
            ext_f = f_prev[j] - extend
            if open_f >= ext_f:
                f_row[j] = open_f
                row_ptr_f[j] = 0
            else:
                f_row[j] = ext_f
                row_ptr_f[j] = 1
            diag = h_prev[j - 1] + (match if base == ref_list[j - 1]
                                    else -mismatch)
            best = diag
            origin = _FROM_DIAG
            if e_val > best:
                best = e_val
                origin = _FROM_E
            if f_row[j] > best:
                best = f_row[j]
                origin = _FROM_F
            if best <= 0:
                best = 0
                origin = from_start
            h_row[j] = best
            row_ptr_h[j] = origin
            if best > best_score:
                best_score, best_i, best_j = best, i, j
        h_prev = h_row
        f_prev = f_row

    if best_score == 0:
        return AlignmentResult(0, Cigar(()), 0, 0, 0, 0, n * m)
    cigar_core, start_j, start_i = _traceback_local(
        read_list, ref_list, ptr_h, ptr_e, ptr_f, best_i, best_j,
        from_start)
    pairs: List[Tuple[int, str]] = []
    if start_i > 0:
        pairs.append((start_i, "S"))
    pairs.extend(cigar_core.ops)
    if best_i < n:
        pairs.append((n - best_i, "S"))
    return AlignmentResult(score=best_score, cigar=Cigar.from_pairs(pairs),
                           ref_start=start_j, ref_end=best_j,
                           read_start=start_i, read_end=best_i,
                           cells=n * m)


def _traceback_local(read_list, ref_list, ptr_h, ptr_e, ptr_f, end_i, end_j,
                     from_start: int):
    """Traceback for local alignment: stop at the clamped-to-zero cell."""
    ops: List[Tuple[int, str]] = []
    i, j = end_i, end_j
    state = "H"
    while i > 0 and j > 0:
        if state == "H":
            origin = ptr_h[i][j]
            if origin == from_start:
                break
            if origin == _FROM_DIAG:
                op = "=" if read_list[i - 1] == ref_list[j - 1] else "X"
                ops.append((1, op))
                i -= 1
                j -= 1
            elif origin == _FROM_E:
                state = "E"
            else:
                state = "F"
        elif state == "E":
            ops.append((1, "D"))
            if ptr_e[i][j] == 0:
                state = "H"
            j -= 1
        else:
            ops.append((1, "I"))
            if ptr_f[i][j] == 0:
                state = "H"
            i -= 1
    return Cigar.from_pairs(reversed(ops)), j, i
