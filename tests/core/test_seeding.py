"""Tests for Partitioned Seeding: where the seeds sit
(``repro.core.seed_offsets``, through the scalar oracle's
``partition_read``) and what they hash to."""

import numpy as np
import pytest

from oracles.core import hash_seed, partition_read
from repro.genome import random_sequence


class TestPartitionRead:
    def test_150bp_tiles_exactly(self):
        codes = random_sequence(np.random.default_rng(0), 150)
        seeds = partition_read(codes, 50)
        assert [s.read_offset for s in seeds] == [0, 50, 100]
        for seed in seeds:
            assert len(seed.codes) == 50
            assert np.array_equal(
                seed.codes, codes[seed.read_offset:seed.read_offset + 50])

    def test_hashes_match_hash_seed(self):
        codes = random_sequence(np.random.default_rng(1), 150)
        for seed in partition_read(codes, 50):
            assert seed.hash_value == hash_seed(seed.codes)

    def test_non_tiling_length_spreads_seeds(self):
        codes = random_sequence(np.random.default_rng(2), 200)
        seeds = partition_read(codes, 50)
        assert [s.read_offset for s in seeds] == [0, 75, 150]

    def test_short_read_fewer_seeds(self):
        codes = random_sequence(np.random.default_rng(3), 120)
        seeds = partition_read(codes, 50)
        assert len(seeds) == 2
        assert seeds[0].read_offset == 0
        assert seeds[-1].read_offset == 70  # last 50bp window

    def test_read_shorter_than_seed(self):
        assert partition_read(random_sequence(
            np.random.default_rng(4), 30), 50) == []

    def test_invalid_seed_length(self):
        with pytest.raises(ValueError):
            partition_read(random_sequence(np.random.default_rng(5), 100),
                           0)
