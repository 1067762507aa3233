"""(w, k) minimizer extraction, as used by the Minimap2 baseline.

A minimizer is the smallest-hashed k-mer in every window of ``w``
consecutive k-mers; indexing only minimizers shrinks the index ~2/(w+1)-
fold while guaranteeing that any exact match of length ``w + k - 1``
shares one.  The baseline mapper ("MM2" in the paper's evaluation) builds
on these, in contrast to GenPair's fixed-offset 50bp partitioned seeds.

Extraction is array-native: every k-mer of every row (a chromosome, or
all oriented reads of a chunk) is hashed in one call, the hashes are
laid out in one row with ``w - 1`` sentinel slots after each input row,
and the sliding-window minimum is one ``argmin`` over the reversed
windows of that row (its first minimum is the window's rightmost), in
blocks of :data:`WINDOW_BLOCK` windows.  The contract is that of the
one-k-mer-at-a-time monotone-queue loop, which is the test oracle in
``tests/oracles/align.py`` (nothing under ``src/`` imports it): the
queue pops on ``>=``, so the **rightmost** minimum of a window wins;
consecutive windows sharing a winner emit it once; a row with fewer
than ``w`` k-mers is one window (the sentinels, larger than any hash,
pad it); a k-mer spanning an ambiguous base is never emitted.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..genome.sequence import ALPHABET_SIZE
from ..hashing import hash_reference_windows, ragged_ranges

#: The baseline's minimizer k-mer length and window (minimap2's
#: short-read preset): the defaults here, of the index build and of the
#: mapper, which refuses an index built with others.
K = 15
W = 10

#: Stand-in hash of a k-mer spanning an ambiguous base, and of the
#: padding after each row: above every 32-bit hash, so a window's
#: minimum only lands on it when the whole window is ambiguous — and
#: then nothing is emitted.
_AMBIGUOUS = 1 << 32

#: Windows per ``argmin`` of the sliding-window minimum: bounds the copy
#: of their ``w`` hashes each to a few MB, however long the row.
WINDOW_BLOCK = 1 << 15


def extract_minimizers(codes: np.ndarray, k: int = K,
                       w: int = W) -> Tuple[np.ndarray, np.ndarray]:
    """The (w, k) minimizers of a code array as ``(positions, hashes)``
    columns (int64 k-mer starts, increasing; uint64 hashes).

    Consecutive windows sharing the same minimizer emit it once.  A
    k-mer spanning an ambiguous base (``N``) is never a minimizer, as in
    minimap2.
    """
    positions, hashes, _rows = extract_minimizers_rows([codes], k, w)
    return positions, hashes


def extract_minimizers_rows(rows: Sequence[np.ndarray], k: int = K,
                            w: int = W
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`extract_minimizers` of every row in one pass:
    ``(positions, hashes, row)`` columns, row by row."""
    if k <= 0 or w <= 0:
        raise ValueError("k and w must be positive")
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    counts = np.maximum(lengths - k + 1, 0)
    total = int(counts.sum())
    if total == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint64),
                np.zeros(0, dtype=np.int64))
    # Row r's k-mer hashes go to padded[slot[r] : slot[r] + counts[r]];
    # the w - 1 sentinels behind them keep every window inside its row.
    slot = np.cumsum(counts + (w - 1)) - (counts + (w - 1))
    row_of, within = ragged_ranges(counts)
    padded = np.full(total + len(rows) * (w - 1), _AMBIGUOUS,
                     dtype=np.uint64)
    padded[slot[row_of] + within] = _kmer_hashes(np.concatenate(rows), k)[
        (np.cumsum(lengths) - lengths)[row_of] + within]

    offset = _rightmost_minima(padded, w)

    # The windows that lie inside a row: max(count - w, 0) + 1 of them,
    # from the row's first slot.
    window_row, within = ragged_ranges(
        np.where(counts > 0, np.maximum(counts - w, 0) + 1, 0))
    window = slot[window_row] + within
    winner = window + offset[window]
    emit = padded[winner] != _AMBIGUOUS
    emit[1:] &= winner[1:] != winner[:-1]
    winner, window_row = winner[emit], window_row[emit]
    return winner - slot[window_row], padded[winner], window_row


def _rightmost_minima(values: np.ndarray, w: int) -> np.ndarray:
    """Offset of the rightmost minimum in every window of ``w`` values:
    one ``argmin`` over the reversed windows (the first minimum of a
    reversed window is its rightmost), :data:`WINDOW_BLOCK` windows at a
    time, since ``argmin`` copies the strided view it is given."""
    windows = sliding_window_view(values, w)[:, ::-1]
    offset = np.empty(len(windows), dtype=np.int64)
    for start in range(0, len(windows), WINDOW_BLOCK):
        np.argmin(windows[start:start + WINDOW_BLOCK], axis=1,
                  out=offset[start:start + WINDOW_BLOCK])
    return np.subtract(w - 1, offset, out=offset)


def _kmer_hashes(codes: np.ndarray, k: int) -> np.ndarray:
    """Hash of the k-mer at every start of ``codes``; :data:`_AMBIGUOUS`
    where it spans an ``N``."""
    try:
        return hash_reference_windows(codes, k)
    except ValueError:
        # The hash's own scan found an N (an N-free read pays no extra
        # pass): hash with a placeholder base, then mask those k-mers.
        ambiguous = codes >= ALPHABET_SIZE
        hashes = hash_reference_windows(np.where(ambiguous, 0, codes)
                                        .astype(codes.dtype), k)
        hashes[sliding_window_view(ambiguous, k).any(axis=1)] = _AMBIGUOUS
        return hashes
