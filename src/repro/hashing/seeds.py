"""Seed hashing: map fixed-length DNA seeds to 32-bit keys.

The hardware hashes the 2-bit packed representation of each 50bp seed
(§4.3, §5.1); this module provides the same mapping for the functional
model, always a whole batch at a time: the windows of a chunk of reads
online, every window of the reference during SeedMap construction.  The
one-seed-at-a-time form (``xxhash32(pack_2bit(codes))``, pure Python) is
the reference in ``tests/oracles/core.py``.
"""

from __future__ import annotations

import numpy as np

from ..genome.sequence import ALPHABET_SIZE, SequenceError, window_view
from .vectorized import pack_rows_2bit, xxhash32_rows

#: Seed length used throughout the paper (Observation 1 fixes 50bp).
DEFAULT_SEED_LENGTH = 50


def hash_reads_batch(windows: np.ndarray, seed: int = 0) -> np.ndarray:
    """Hash a batch of equal-length seed windows in one vectorized call.

    ``windows`` is a ``(count, seed_length)`` array of base codes — e.g.
    all six seeds of every read-pair in a batch, stacked row-wise.  Row
    ``i`` of the returned ``uint64`` array is bit-identical to the
    scalar ``xxhash32(pack_2bit(windows[i]), seed=seed)`` of the test
    oracle (``tests/oracles/core.py``); this is the online counterpart
    of :func:`hash_reference_windows` (one ``xxhash32_rows`` call
    replaces thousands of scalar xxHash evaluations).  Windows holding
    an ambiguous base raise: the caller
    (:func:`repro.core.query.resolve_reads`) drops them first.
    """
    windows = np.ascontiguousarray(windows, dtype=np.uint8)
    if windows.ndim != 2:
        raise ValueError("hash_reads_batch expects a (count, length) array")
    if windows.size == 0:
        return np.zeros(windows.shape[0], dtype=np.uint64)
    if windows.max(initial=0) >= ALPHABET_SIZE:
        raise ValueError("seed windows must be concrete bases")
    packed = pack_rows_2bit(windows)
    return xxhash32_rows(packed, seed=seed).astype(np.uint64)


def hash_reference_windows(codes: np.ndarray, seed_length: int,
                           seed: int = 0) -> np.ndarray:
    """Hash every ``seed_length`` window of ``codes``.

    This is the hot loop of offline SeedMap construction (§4.2), which
    indexes every reference position.  The windows are a strided view
    of ``codes`` (no copy) packed row-wise, so the per-window Python
    work is just the xxHash core.

    Returns a ``uint64`` array of hash values, one per window start
    ``0, 1, 2, ...``.  An ambiguous base anywhere in ``codes`` raises
    :class:`~repro.genome.sequence.SequenceError`.
    """
    if seed_length <= 0:
        raise ValueError("seed_length must be positive")
    if len(codes) < seed_length:
        return np.zeros(0, dtype=np.uint64)
    if codes.max(initial=0) >= ALPHABET_SIZE:
        raise SequenceError("reference windows must be concrete bases")
    windows = window_view(np.ascontiguousarray(codes), seed_length)
    packed = pack_rows_2bit(windows)
    return xxhash32_rows(packed, seed=seed).astype(np.uint64)
