"""Vectorized xxHash must be bit-identical to the scalar implementation."""

import numpy as np
import pytest

from oracles.core import hash_seed, xxhash32
from repro.genome import pack_2bit, random_sequence
from repro.hashing import (hash_reads_batch, hash_reference_windows,
                           pack_rows_2bit, xxhash32_rows)


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("length", [0, 1, 3, 4, 7, 12, 13, 15, 16, 17,
                                        20, 31, 32, 40])
    def test_matches_scalar(self, length):
        rng = np.random.default_rng(length)
        rows = rng.integers(0, 256, size=(32, length), dtype=np.uint8)
        vec = xxhash32_rows(rows, seed=5)
        for i in range(32):
            assert int(vec[i]) == xxhash32(rows[i].tobytes(), seed=5)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            xxhash32_rows(np.zeros(8, dtype=np.uint8))

    def test_large_batch_no_overflow_artifacts(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 256, size=(10_000, 13), dtype=np.uint8)
        digests = xxhash32_rows(rows)
        # Uniformity sanity: top byte should spread widely.
        assert len(np.unique(digests >> 24)) > 200


class TestPackRows:
    def test_matches_scalar_pack(self):
        rng = np.random.default_rng(1)
        windows = np.stack([random_sequence(rng, 50) for _ in range(16)])
        packed = pack_rows_2bit(windows)
        for i in range(16):
            assert packed[i].tobytes() == pack_2bit(windows[i])


class TestHashReadsBatch:
    def test_matches_hash_seed(self):
        rng = np.random.default_rng(7)
        windows = np.stack([random_sequence(rng, 50) for _ in range(64)])
        hashes = hash_reads_batch(windows)
        assert hashes.dtype == np.uint64
        for i in range(64):
            assert int(hashes[i]) == hash_seed(windows[i])

    def test_empty_batch(self):
        assert hash_reads_batch(
            np.zeros((0, 50), dtype=np.uint8)).size == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hash_reads_batch(np.zeros(50, dtype=np.uint8))
        with pytest.raises(ValueError):
            hash_reads_batch(np.full((2, 50), 4, dtype=np.uint8))


class TestReferenceWindows:
    def test_window_hashes_match_hash_seed(self):
        rng = np.random.default_rng(2)
        codes = random_sequence(rng, 300)
        hashes = hash_reference_windows(codes, 50)
        assert len(hashes) == 251
        for start in (0, 17, 250):
            assert int(hashes[start]) == hash_seed(codes[start:start + 50])

    def test_stride(self):
        rng = np.random.default_rng(3)
        codes = random_sequence(rng, 200)
        strided = hash_reference_windows(codes, 50, step=10)
        dense = hash_reference_windows(codes, 50, step=1)
        assert np.array_equal(strided, dense[::10])

    def test_short_input(self):
        assert hash_reference_windows(
            random_sequence(np.random.default_rng(4), 10), 50).size == 0

    def test_invalid_params(self):
        codes = random_sequence(np.random.default_rng(5), 100)
        with pytest.raises(ValueError):
            hash_reference_windows(codes, 0)
        with pytest.raises(ValueError):
            hash_reference_windows(codes, 50, step=0)
