"""(w, k) minimizer extraction, as used by the Minimap2 baseline.

A minimizer is the smallest-hashed k-mer in every window of ``w``
consecutive k-mers; indexing only minimizers shrinks the index ~2/(w+1)-
fold while guaranteeing that any exact match of length ``w + k - 1``
shares one.  The baseline mapper ("MM2" in the paper's evaluation) builds
on these, in contrast to GenPair's fixed-offset 50bp partitioned seeds.

Extraction is array-native: every k-mer of every row (a chromosome, or
all oriented reads of a chunk) is hashed in one call, the hashes are
laid out in one row with ``w - 1`` sentinel slots after each input row,
and the sliding-window minimum is ``w`` elementwise passes over that
row.  The contract is that of the one-k-mer-at-a-time monotone-queue
loop, which is the test oracle in ``tests/oracles/align.py`` (nothing
under ``src/`` imports it): the queue pops on ``>=``, so the
**rightmost** minimum of a window wins; consecutive windows sharing a
winner emit it once; a row with fewer than ``w`` k-mers is one window
(the sentinels, larger than any hash, pad it); a k-mer spanning an
ambiguous base is never emitted.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..genome.sequence import ALPHABET_SIZE
from ..hashing import hash_reference_windows, ragged_ranges

#: Stand-in hash of a k-mer spanning an ambiguous base, and of the
#: padding after each row: above every 32-bit hash, so a window's
#: minimum only lands on it when the whole window is ambiguous — and
#: then nothing is emitted.
_AMBIGUOUS = 1 << 32


def extract_minimizers(codes: np.ndarray, k: int = 15,
                       w: int = 10) -> Tuple[np.ndarray, np.ndarray]:
    """The (w, k) minimizers of a code array as ``(positions, hashes)``
    columns (int64 k-mer starts, increasing; uint64 hashes).

    Consecutive windows sharing the same minimizer emit it once.  A
    k-mer spanning an ambiguous base (``N``) is never a minimizer, as in
    minimap2.
    """
    positions, hashes, _rows = extract_minimizers_rows([codes], k, w)
    return positions, hashes


def extract_minimizers_rows(rows: Sequence[np.ndarray], k: int = 15,
                            w: int = 10
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

    # Rightmost minimum of every window of w: start from the last slot
    # and let a slot further left win only when strictly smaller.
    windows = padded.size - (w - 1)
    lowest = padded[w - 1:]
    offset = np.full(windows, w - 1, dtype=np.int64)
    for shift in range(w - 2, -1, -1):
        candidate = padded[shift:shift + windows]
        lower = candidate < lowest
        lowest = np.where(lower, candidate, lowest)
        offset[lower] = shift

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
        hashes[np.lib.stride_tricks.sliding_window_view(
            ambiguous, k).any(axis=1)] = _AMBIGUOUS
        return hashes
