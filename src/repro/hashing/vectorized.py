"""Vectorized xxHash32 over many equal-length byte rows.

Offline SeedMap construction hashes one 50bp seed per reference position
(§4.2) — millions of hashes even for the scaled-down genomes used here.
This module evaluates the exact XXH32 algorithm across all rows at once
with numpy, producing bit-identical results to the scalar reference
implementation in ``tests/oracles/core.py`` (spec vectors and property
tests in the suite).

All arithmetic runs in ``uint64`` and is masked back to 32 bits; this is
exact because ``(a * b) mod 2**64 mod 2**32 == (a * b) mod 2**32``.
"""

from __future__ import annotations

import numpy as np

_PRIME32_1 = np.uint64(0x9E3779B1)
_PRIME32_2 = np.uint64(0x85EBCA77)
_PRIME32_3 = np.uint64(0xC2B2AE3D)
_PRIME32_4 = np.uint64(0x27D4EB2F)
_PRIME32_5 = np.uint64(0x165667B1)
_MASK32 = np.uint64(0xFFFFFFFF)


def _rotl32(values: np.ndarray, count: int) -> np.ndarray:
    values = values & _MASK32
    return ((values << np.uint64(count))
            | (values >> np.uint64(32 - count))) & _MASK32


def _round(acc: np.ndarray, lane: np.ndarray) -> np.ndarray:
    acc = (acc + lane * _PRIME32_2) & _MASK32
    return (_rotl32(acc, 13) * _PRIME32_1) & _MASK32


def xxhash32_rows(rows: np.ndarray, seed: int = 0) -> np.ndarray:
    """XXH32 of every row of a ``(count, length)`` uint8 array.

    Returns a ``uint32`` array of ``count`` digests, bit-identical to the
    scalar implementation applied row by row.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    if rows.ndim != 2:
        raise ValueError("xxhash32_rows expects a 2-D byte array")
    count, length = rows.shape
    seed64 = np.uint64(seed & 0xFFFFFFFF)
    index = 0

    if length >= 16:
        base = seed & 0xFFFFFFFF
        acc1 = np.full(count, np.uint64((base + 0x9E3779B1 + 0x85EBCA77)
                                        & 0xFFFFFFFF))
        acc2 = np.full(count, np.uint64((base + 0x85EBCA77) & 0xFFFFFFFF))
        acc3 = np.full(count, seed64)
        acc4 = np.full(count, np.uint64((base - 0x9E3779B1) & 0xFFFFFFFF))
        while index + 16 <= length:
            block = rows[:, index:index + 16]
            lanes = block.reshape(count, 4, 4).astype(np.uint64)
            words = (lanes[:, :, 0] | (lanes[:, :, 1] << np.uint64(8))
                     | (lanes[:, :, 2] << np.uint64(16))
                     | (lanes[:, :, 3] << np.uint64(24)))
            acc1 = _round(acc1, words[:, 0])
            acc2 = _round(acc2, words[:, 1])
            acc3 = _round(acc3, words[:, 2])
            acc4 = _round(acc4, words[:, 3])
            index += 16
        digest = (_rotl32(acc1, 1) + _rotl32(acc2, 7)
                  + _rotl32(acc3, 12) + _rotl32(acc4, 18)) & _MASK32
    else:
        digest = np.full(count, (seed64 + _PRIME32_5) & _MASK32)

    digest = (digest + np.uint64(length)) & _MASK32

    while index + 4 <= length:
        block = rows[:, index:index + 4].astype(np.uint64)
        word = (block[:, 0] | (block[:, 1] << np.uint64(8))
                | (block[:, 2] << np.uint64(16))
                | (block[:, 3] << np.uint64(24)))
        digest = (digest + word * _PRIME32_3) & _MASK32
        digest = (_rotl32(digest, 17) * _PRIME32_4) & _MASK32
        index += 4

    while index < length:
        digest = (digest + rows[:, index].astype(np.uint64)
                  * _PRIME32_5) & _MASK32
        digest = (_rotl32(digest, 11) * _PRIME32_1) & _MASK32
        index += 1

    digest ^= digest >> np.uint64(15)
    digest = (digest * _PRIME32_2) & _MASK32
    digest ^= digest >> np.uint64(13)
    digest = (digest * _PRIME32_3) & _MASK32
    digest ^= digest >> np.uint64(16)
    return digest.astype(np.uint32)


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
