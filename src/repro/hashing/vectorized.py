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

#: ``np.uint32`` scalars of the constants the rounds use, built once: a
#: round is a handful of ufunc calls on a small column, where making the
#: scalar operands each time would be a measurable share.
_U32 = {value: np.uint32(value) for value in (
    _PRIME32_1, _PRIME32_2, _PRIME32_3, _PRIME32_4, _PRIME32_5,
    *range(33))}

#: The four stripe accumulators' merge rotations, one per lane column.
_MERGE_ROTATIONS = np.array([1, 7, 12, 18], dtype=np.uint32)


#: ``word * _PACK_MULTIPLIER >> 18`` gathers the 2-bit codes held in the
#: four bytes of a little-endian ``uint32`` word into its low byte: code
#: ``i`` (bits ``8i``) lands at bit ``18 + 2i``, and no other of the
#: sixteen partial products reaches bits 18-25 or carries into them.
_PACK_MULTIPLIER = np.uint32(1 + (1 << 6) + (1 << 12) + (1 << 18))


def _round(digest: np.ndarray, lane: np.ndarray, prime: int, count: int,
           prime_after: int, scratch: np.ndarray) -> None:
    """``digest = rotl(digest + lane * prime, count) * prime_after`` in
    place: one XXH32 input round (``rotl``: rotate left by ``count``
    bits)."""
    np.multiply(lane, _U32[prime], out=scratch)
    digest += scratch
    np.left_shift(digest, _U32[count], out=scratch)
    digest >>= _U32[32 - count]
    digest |= scratch
    digest *= _U32[prime_after]


def xxhash32_rows(rows: np.ndarray, seed: int = 0) -> np.ndarray:
    """XXH32 of every row of a ``(count, length)`` uint8 array.

    Returns a ``uint32`` array of ``count`` digests, bit-identical to the
    scalar implementation applied row by row.  Every round runs in place
    on the digest column and one scratch column.
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
        lanes = np.empty_like(acc)
        for stripe in range(stripes):
            _round(acc, words[:, 4 * stripe:4 * stripe + 4], _PRIME32_2,
                   13, _PRIME32_1, lanes)
        digest = ((acc << _MERGE_ROTATIONS)
                  | (acc >> (32 - _MERGE_ROTATIONS))).sum(axis=1,
                                                          dtype=np.uint32)
        digest += np.uint32(length & 0xFFFFFFFF)
    else:
        digest = np.empty(count, dtype=np.uint32)
        digest.fill((seed + _PRIME32_5 + length) & 0xFFFFFFFF)

    scratch = np.empty_like(digest)
    for word in range(4 * stripes, length // 4):
        _round(digest, words[:, word], _PRIME32_3, 17, _PRIME32_4, scratch)
    for index in range(length // 4 * 4, length):
        _round(digest, rows[:, index], _PRIME32_5, 11, _PRIME32_1, scratch)

    for shift, prime in ((15, _PRIME32_2), (13, _PRIME32_3), (16, None)):
        np.right_shift(digest, _U32[shift], out=scratch)
        digest ^= scratch
        if prime is not None:
            digest *= _U32[prime]
    return digest


def pack_rows_2bit(windows: np.ndarray) -> np.ndarray:
    """2-bit pack every row of a ``(count, seed_length)`` code array.

    Equivalent to :func:`repro.genome.sequence.pack_2bit` applied per row;
    the packed rows are what gets hashed, matching the hardware which hashes
    the 2-bit wire encoding of each seed.  Four codes at a time: each
    little-endian ``uint32`` of the zero-padded rows is packed into one
    byte with a multiply and a shift (:data:`_PACK_MULTIPLIER`).
    """
    count, seed_length = windows.shape
    padded = np.zeros((count, (seed_length + 3) // 4 * 4), dtype=np.uint8)
    padded[:, :seed_length] = windows
    quads = padded.view("<u4") * _PACK_MULTIPLIER
    quads >>= _U32[18]
    return quads.astype(np.uint8)
