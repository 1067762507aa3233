"""Scalar loops: the oracles the vectorized kernels are tested against.

Two families, both shipped under ``src/`` before a numpy sweep replaced
them, both kept here one element at a time:

* the pure-Python banded and unbanded semiglobal Gotoh aligners (one
  cell at a time, explicit pointer bytearrays, scalar tracebacks).  They
  define the contract the DP kernel must reproduce exactly: score,
  CIGAR, reference span, ``cells`` and every tie-break (``open >= ext``
  opens a gap; origin priority diag > E > F; the leftmost best end
  column);
* the traditional path's seed->chain front-end: the monotone-deque
  :func:`extract_minimizers`, the dict-of-lists :func:`build_index` and
  the per-anchor :func:`chain_anchors` loop with its ``_gap_penalty``
  and greedy ``_extract_chains``, over the :class:`Anchor` /
  :class:`Chain` objects the product no longer builds.  They define what
  the array-native front-end must reproduce exactly: minimizer positions
  and hashes (the rightmost minimum of a window wins), ``IndexStats`` and
  per-hash positions, and the chains (rank, float ``score`` with ``==``,
  diagonal) and ``cells`` of every chaining problem.

Beside them, :func:`rescue_mate`: the mm2 mapper's mate rescue before
its q-gram bound, one band over the whole insert window, which the
seeded rescue must reproduce placement for placement.

Nothing under ``src/`` imports this module; tests import it as
``oracles.align``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.align import banded
from repro.align.dp import NEG_INF, AlignmentResult
from repro.align.scoring import DEFAULT_SCHEME, ScoringScheme
from repro.genome.cigar import Cigar
from repro.genome.sequence import ALPHABET_SIZE, reverse_complement
from repro.hashing import hash_reference_windows
from repro.mapper.index import IndexStats
from repro.mapper.mm2 import MAX_INSERT, MIN_SCORE_FRACTION, _Placement

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
        return AlignmentResult(0, Cigar(()), 0, 0, 0)
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
            return AlignmentResult(NEG_INF, Cigar(()), 0, 0, cells)
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
        return AlignmentResult(NEG_INF, Cigar(()), 0, 0, cells)
    cigar, start_j = _traceback(read_list, ref_list, ptr_h, ptr_e, ptr_f,
                                n, end_j, stop_at_row0=True)
    return AlignmentResult(score=score, cigar=cigar, ref_start=start_j,
                           ref_end=end_j, cells=cells)


def align_semiglobal(read: np.ndarray, ref: np.ndarray,
                     scheme: ScoringScheme = DEFAULT_SCHEME
                     ) -> AlignmentResult:
    """Align ``read`` end-to-end against a free-flank reference window."""
    read_list = np.asarray(read, dtype=np.uint8).tolist()
    ref_list = np.asarray(ref, dtype=np.uint8).tolist()
    n, m = len(read_list), len(ref_list)
    if n == 0:
        return AlignmentResult(0, Cigar(()), 0, 0, 0)
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
                           ref_end=end_j, cells=n * m)


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


def rescue_mate(mapper, anchor, mate_codes):
    """The mm2 mapper's mate rescue before its q-gram bound: one band
    over the whole insert window next to ``anchor``, whatever the mate —
    a placement of the mate, or ``None`` below the score floor.  The
    seeded rescue (``Mm2LikeMapper._rescue``) must return exactly this.
    The band runs on the DP kernel, itself checked against the scalar
    :func:`align_banded` above."""
    mate_strand = "-" if anchor.strand == "+" else "+"
    oriented = (reverse_complement(mate_codes) if mate_strand == "-"
                else mate_codes)
    before, after = ((0, MAX_INSERT) if anchor.strand == "+"
                     else (MAX_INSERT, len(mate_codes)))
    found = mapper.reference.window(anchor.position, len(mate_codes),
                                    before, after,
                                    min_length=len(mate_codes),
                                    chromosome=anchor.chromosome)
    if found is None:
        return None
    window, chromosome, start, _ = found
    result = banded.align_banded(oriented, window, scheme=mapper.scheme,
                                 diagonal=len(window) // 2,
                                 bandwidth=len(window) // 2 + 8)
    min_score = int(MIN_SCORE_FRACTION
                    * mapper.scheme.perfect_score(len(mate_codes)))
    if result.score < min_score:
        return None
    return _Placement(score=result.score, chromosome=chromosome,
                      position=start + result.ref_start,
                      strand=mate_strand, alignment=result,
                      oriented=oriented)


# -- seed -> chain front-end -------------------------------------------------

#: Stand-in hash of a k-mer spanning an ambiguous base: above every
#: 32-bit hash, so a window's minimum only lands on it when the whole
#: window is ambiguous — and then nothing is emitted.
_AMBIGUOUS = 1 << 32


def extract_minimizers(codes: np.ndarray, k: int = 15,
                       w: int = 10) -> List[Tuple[int, int]]:
    """(w, k) minimizers of a code array as ``(position, hash)`` pairs.

    The standard monotone-deque sliding-window minimum; consecutive
    windows sharing the same minimizer emit it once.  A k-mer spanning
    an ambiguous base (``N``) is never a minimizer, as in minimap2.
    """
    if k <= 0 or w <= 0:
        raise ValueError("k and w must be positive")
    if len(codes) < k:
        return []
    try:
        hashes = hash_reference_windows(codes, k).tolist()
    except ValueError:
        ambiguous = codes >= ALPHABET_SIZE
        hashes = hash_reference_windows(np.where(ambiguous, 0, codes)
                                        .astype(codes.dtype), k)
        hashes[np.lib.stride_tricks.sliding_window_view(
            ambiguous, k).any(axis=1)] = _AMBIGUOUS
        hashes = hashes.tolist()
    count = len(hashes)
    window = min(w, count)
    result: List[Tuple[int, int]] = []
    queue: deque = deque()  # indices, increasing hash order
    last_emitted = -1
    for index in range(count):
        while queue and hashes[queue[-1]] >= hashes[index]:
            queue.pop()
        queue.append(index)
        if queue[0] <= index - window:
            queue.popleft()
        if index >= window - 1:
            best = queue[0]
            if best != last_emitted and hashes[best] != _AMBIGUOUS:
                result.append((best, hashes[best]))
                last_emitted = best
    return result


def build_index(reference, k: int = 15, w: int = 10,
                max_occurrences: Optional[int] = 500
                ) -> Tuple[Dict[int, np.ndarray], IndexStats]:
    """The dict-of-lists minimizer index build: ``hash -> sorted global
    positions`` and the build statistics."""
    collected: Dict[int, list] = {}
    total = 0
    for name in reference.names:
        codes = reference.fetch(name, 0, reference.length(name))
        offset = reference.linear_offset(name)
        for position, hash_value in extract_minimizers(codes, k, w):
            collected.setdefault(hash_value, []).append(position + offset)
            total += 1
    table: Dict[int, np.ndarray] = {}
    masked = 0
    for hash_value, positions in collected.items():
        if max_occurrences is not None and len(positions) > max_occurrences:
            masked += 1
            continue
        table[hash_value] = np.array(sorted(positions), dtype=np.int64)
    return table, IndexStats(total_minimizers=total,
                             distinct_hashes=len(table),
                             masked_hashes=masked)


@dataclass(frozen=True)
class Anchor:
    """An exact match of ``length`` bases: read offset -> reference position."""

    ref_pos: int
    read_pos: int
    length: int


@dataclass(frozen=True)
class Chain:
    """A scored colinear chain of anchors."""

    anchors: Tuple[Anchor, ...]
    score: float

    @property
    def diagonal(self) -> int:
        """Reference offset of read position 0 implied by the chain start."""
        return self.anchors[0].ref_pos - self.anchors[0].read_pos


@dataclass(frozen=True)
class ChainingResult:
    """One problem's chains, best first, and the DP cells visited."""

    chains: Tuple[Chain, ...]
    cells: int


def _gap_penalty(ref_gap: int, read_gap: int, average_length: float) -> float:
    """Concave gap cost, following minimap2's chaining penalty shape."""
    diff = abs(ref_gap - read_gap)
    if diff == 0:
        return 0.0
    return 0.2 * average_length * 0.05 * diff + 0.5 * math.log2(diff + 1)


def chain_anchors(anchors: Sequence[Anchor], max_gap: int = 500,
                  max_lookback: int = 25, min_score: float = 20.0,
                  max_chains: int = 8) -> ChainingResult:
    """Chain one problem's anchors with the O(n * lookback) DP, one
    anchor and one predecessor at a time."""
    if not anchors:
        return ChainingResult((), 0)
    ordered = sorted(anchors, key=lambda a: (a.ref_pos, a.read_pos))
    count = len(ordered)
    average_length = sum(a.length for a in ordered) / count
    scores = [float(a.length) for a in ordered]
    parents = [-1] * count
    cells = 0
    for i in range(1, count):
        anchor = ordered[i]
        lo = max(0, i - max_lookback)
        for j in range(i - 1, lo - 1, -1):
            prev = ordered[j]
            cells += 1
            ref_gap = anchor.ref_pos - prev.ref_pos
            read_gap = anchor.read_pos - prev.read_pos
            if read_gap <= 0 or ref_gap <= 0:
                continue
            if ref_gap > max_gap or read_gap > max_gap:
                continue
            overlap = max(0, prev.read_pos + prev.length - anchor.read_pos,
                          prev.ref_pos + prev.length - anchor.ref_pos)
            gain = anchor.length - min(overlap, anchor.length)
            candidate = (scores[j] + gain
                         - _gap_penalty(ref_gap, read_gap, average_length))
            if candidate > scores[i]:
                scores[i] = candidate
                parents[i] = j
    chains = _extract_chains(ordered, scores, parents, min_score, max_chains)
    return ChainingResult(tuple(chains), cells)


def _extract_chains(ordered: List[Anchor], scores: List[float],
                    parents: List[int], min_score: float,
                    max_chains: int) -> List[Chain]:
    """Greedy backtracking: best chain first, anchors used at most once."""
    order = sorted(range(len(ordered)), key=lambda i: -scores[i])
    used = [False] * len(ordered)
    chains: List[Chain] = []
    for tail in order:
        if used[tail] or scores[tail] < min_score:
            continue
        members: List[int] = []
        node = tail
        while node != -1 and not used[node]:
            members.append(node)
            node = parents[node]
        if node != -1:
            continue  # merged into an already-extracted chain; skip
        for member in members:
            used[member] = True
        members.reverse()
        chains.append(Chain(tuple(ordered[m] for m in members),
                            scores[tail]))
        if len(chains) >= max_chains:
            break
    return chains
