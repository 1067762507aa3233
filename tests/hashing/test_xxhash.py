"""Tests for the scalar xxHash32 reference (``tests/oracles/core.py``):
the spec vectors that anchor it, and through it the vectorized kernel
(``test_vectorized.py`` compares the two row for row)."""

import numpy as np
import pytest

from oracles.core import _rotl32, hash_seed, xxhash32


class TestSpecVectors:
    """Published XXH32 test vectors (xxHash reference repository)."""

    def test_empty_seed0(self):
        assert xxhash32(b"") == 0x02CC5D05

    def test_abc(self):
        assert xxhash32(b"abc") == 0x32D153FF

    def test_a(self):
        assert xxhash32(b"a") == 0x550D7456


class TestBehaviour:
    def test_deterministic(self):
        data = b"GenPairX" * 10
        assert xxhash32(data) == xxhash32(data)

    def test_seed_changes_digest(self):
        assert xxhash32(b"seed-me", seed=0) != xxhash32(b"seed-me", seed=1)

    def test_32bit_range(self):
        for length in range(0, 64):
            digest = xxhash32(bytes(range(length % 256)) * (length // 256
                                                            + 1))
            assert 0 <= digest <= 0xFFFFFFFF

    def test_all_block_paths(self):
        """Exercise <16B, exactly 16B, 16B+tail, and multi-block inputs."""
        outputs = {xxhash32(b"x" * n) for n in (0, 3, 4, 15, 16, 17, 31,
                                                32, 33, 64)}
        assert len(outputs) == 10  # all distinct

    def test_avalanche(self):
        a = xxhash32(b"AAAAAAAAAAAAAAAA")
        b = xxhash32(b"AAAAAAAAAAAAAAAB")
        assert bin(a ^ b).count("1") > 8

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            xxhash32("not-bytes")  # type: ignore[arg-type]

    def test_rotl32_wraps(self):
        assert _rotl32(0x80000000, 1) == 1


class TestSeedHashing:
    def test_hash_seed_matches_packed_bytes(self):
        from repro.genome import encode, pack_2bit
        codes = encode("ACGT" * 13)[:50]
        assert hash_seed(codes) == xxhash32(pack_2bit(codes))

    def test_distinct_seeds_distinct_hashes(self):
        from repro.genome import random_sequence
        rng = np.random.default_rng(0)
        hashes = {hash_seed(random_sequence(rng, 50)) for _ in range(200)}
        assert len(hashes) == 200
