"""Vectorized xxHash32 over many equal-length byte rows.

Offline SeedMap construction hashes one 50bp seed per reference position
(§4.2) — millions of hashes even for the scaled-down genomes used here.
This module evaluates the exact XXH32 algorithm across all rows at once
with numpy, producing bit-identical results to the scalar reference
implementation in ``tests/oracles/core.py`` (spec vectors and property
tests in the suite).

All arithmetic runs on ``uint32`` arrays, whose wrap-around on overflow
is XXH32's arithmetic mod 2**32, so no step needs a mask.  The rows are
read as little-endian 32-bit words (a ``<u4`` view of their bytes), the
byte order XXH32 specifies, whatever the host's.
"""

from __future__ import annotations

import numpy as np

_PRIME32_1 = 0x9E3779B1
_PRIME32_2 = 0x85EBCA77
_PRIME32_3 = 0xC2B2AE3D
_PRIME32_4 = 0x27D4EB2F
_PRIME32_5 = 0x165667B1

#: The four stripe accumulators' merge rotations, one per lane column.
_MERGE_ROTATIONS = np.array([1, 7, 12, 18], dtype=np.uint32)


def _rotl32(values: np.ndarray, count) -> np.ndarray:
    return (values << count) | (values >> (32 - count))


def xxhash32_rows(rows: np.ndarray, seed: int = 0) -> np.ndarray:
    """XXH32 of every row of a ``(count, length)`` uint8 array.

    Returns a ``uint32`` array of ``count`` digests, bit-identical to the
    scalar implementation applied row by row.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    if rows.ndim != 2:
        raise ValueError("xxhash32_rows expects a 2-D byte array")
    count, length = rows.shape
    seed &= 0xFFFFFFFF
    words = np.ascontiguousarray(rows[:, :length // 4 * 4]).view(
        "<u4").astype(np.uint32, copy=False)
    stripes = length // 16

    if stripes:
        # The four accumulators side by side, one column per lane.
        acc = np.empty((count, 4), dtype=np.uint32)
        acc[:] = [(seed + _PRIME32_1 + _PRIME32_2) & 0xFFFFFFFF,
                  (seed + _PRIME32_2) & 0xFFFFFFFF, seed,
                  (seed - _PRIME32_1) & 0xFFFFFFFF]
        for stripe in range(stripes):
            acc += words[:, 4 * stripe:4 * stripe + 4] * np.uint32(
                _PRIME32_2)
            acc = _rotl32(acc, np.uint32(13))
            acc *= np.uint32(_PRIME32_1)
        digest = _rotl32(acc, _MERGE_ROTATIONS).sum(axis=1,
                                                    dtype=np.uint32)
    else:
        digest = np.full(count, (seed + _PRIME32_5) & 0xFFFFFFFF,
                         dtype=np.uint32)

    digest += np.uint32(length & 0xFFFFFFFF)

    for word in range(4 * stripes, length // 4):
        digest += words[:, word] * np.uint32(_PRIME32_3)
        digest = _rotl32(digest, np.uint32(17))
        digest *= np.uint32(_PRIME32_4)

    for index in range(length // 4 * 4, length):
        digest += rows[:, index] * np.uint32(_PRIME32_5)
        digest = _rotl32(digest, np.uint32(11))
        digest *= np.uint32(_PRIME32_1)

    digest ^= digest >> np.uint32(15)
    digest *= np.uint32(_PRIME32_2)
    digest ^= digest >> np.uint32(13)
    digest *= np.uint32(_PRIME32_3)
    digest ^= digest >> np.uint32(16)
    return digest


def pack_rows_2bit(windows: np.ndarray) -> np.ndarray:
    """2-bit pack every row of a ``(count, seed_length)`` code array.

    Equivalent to :func:`repro.genome.sequence.pack_2bit` applied per row;
    the packed rows are what gets hashed, matching the hardware which hashes
    the 2-bit wire encoding of each seed.
    """
    count, seed_length = windows.shape
    padded_len = (seed_length + 3) // 4 * 4
    padded = np.zeros((count, padded_len), dtype=np.uint8)
    padded[:, :seed_length] = windows
    quads = padded.reshape(count, -1, 4)
    return (quads[:, :, 0] | (quads[:, :, 1] << 2)
            | (quads[:, :, 2] << 4) | (quads[:, :, 3] << 6)).astype(np.uint8)
