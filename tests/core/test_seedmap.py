"""Tests for SeedMap construction and querying."""

import numpy as np
import pytest

from oracles.core import hash_seed
from repro.core import SeedMap
from repro.genome import ReferenceGenome, encode, random_sequence


class TestBuild:
    def test_every_position_indexed(self, plain_reference, plain_seedmap):
        assert plain_seedmap.stats.total_positions == \
            plain_reference.total_length - 50 + 1

    def test_query_returns_true_location(self, plain_reference,
                                         plain_seedmap):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pos = int(rng.integers(0, plain_reference.length("chr1") - 50))
            seed = plain_reference.fetch("chr1", pos, pos + 50)
            locations = plain_seedmap.query(hash_seed(seed))
            assert pos in locations.tolist()

    def test_locations_sorted(self, seedmap):
        for _, start, end in list(seedmap.iter_ranges())[:200]:
            locations = seedmap.location_table[start:end]
            assert np.all(np.diff(locations) >= 0)

    def test_absent_hash_empty(self, plain_seedmap):
        assert plain_seedmap.query(0xDEADBEEF ^ 0x1234).size in (0, 1, 2) \
            or True  # may collide; the strict check is below
        # A hash guaranteed absent: beyond 32-bit range never stored.
        assert plain_seedmap.query(2**33).size == 0

    def test_contains(self, plain_reference, plain_seedmap):
        seed = plain_reference.fetch("chr1", 100, 150)
        assert hash_seed(seed) in plain_seedmap

    def test_multi_chromosome_linear_coordinates(self, small_reference,
                                                 seedmap):
        pos = small_reference.length("chr1") // 2
        seed = small_reference.fetch("chr2", pos, pos + 50)
        locations = seedmap.query(hash_seed(seed))
        expected = small_reference.linear_offset("chr2") + pos
        assert expected in locations.tolist()


class TestQueryBatch:
    def test_batch_spans_match_scalar_query(self, plain_reference,
                                            plain_seedmap):
        rng = np.random.default_rng(8)
        hashes = []
        for _ in range(25):
            pos = int(rng.integers(0, plain_reference.length("chr1") - 50))
            seed = plain_reference.fetch("chr1", pos, pos + 50)
            hashes.append(hash_seed(seed))
        hashes.append(2**33)  # guaranteed absent
        starts, ends = plain_seedmap.query_batch(
            np.array(hashes, dtype=np.uint64))
        for value, start, end in zip(hashes, starts, ends):
            scalar = plain_seedmap.query(value)
            batch = plain_seedmap.location_table[start:end]
            assert np.array_equal(batch, scalar)

    def test_empty_batch(self, plain_seedmap):
        starts, ends = plain_seedmap.query_batch(
            np.zeros(0, dtype=np.uint64))
        assert starts.size == 0 and ends.size == 0


class TestFiltering:
    def make_repetitive_genome(self):
        unit = random_sequence(np.random.default_rng(5), 60)
        codes = np.tile(unit, 40)  # every 50-mer occurs ~40 times
        return ReferenceGenome({"rep": codes})

    def test_threshold_drops_heavy_seeds(self):
        genome = self.make_repetitive_genome()
        unfiltered = SeedMap.build(genome, filter_threshold=None)
        filtered = SeedMap.build(genome, filter_threshold=10)
        assert unfiltered.stats.filtered_seeds == 0
        assert filtered.stats.filtered_seeds > 0
        assert filtered.stats.stored_locations < \
            unfiltered.stats.stored_locations
        assert filtered.stats.max_locations <= 10

    def test_filtered_seed_queries_empty(self):
        genome = self.make_repetitive_genome()
        filtered = SeedMap.build(genome, filter_threshold=10)
        seed = genome.fetch("rep", 0, 50)
        assert filtered.query(hash_seed(seed)).size == 0

    def test_stats_accounting(self):
        genome = self.make_repetitive_genome()
        filtered = SeedMap.build(genome, filter_threshold=10)
        stats = filtered.stats
        assert stats.stored_locations + stats.filtered_locations == \
            stats.total_positions


class TestStatsAndMemory:
    def test_mean_locations(self, plain_seedmap):
        assert 1.0 <= plain_seedmap.stats.mean_locations_per_seed < 1.2

    def test_memory_model(self, plain_seedmap):
        stats = plain_seedmap.stats
        assert plain_seedmap.memory_bytes == \
            stats.distinct_seeds * 8 + stats.stored_locations * 5

    def test_empty_reference(self):
        genome = ReferenceGenome({"tiny": encode("ACGT")})
        seedmap = SeedMap.build(genome, seed_length=50)
        assert seedmap.stats.total_positions == 0
        assert seedmap.query(123).size == 0

    def test_location_count(self, plain_reference, plain_seedmap):
        seed = plain_reference.fetch("chr1", 512, 562)
        assert plain_seedmap.location_count(hash_seed(seed)) >= 1
        assert plain_seedmap.location_count(2**34) == 0

    @pytest.mark.parametrize("seed_hash", [-1, 0, 2**64 - 1, 2**70])
    def test_any_integer_is_a_valid_probe(self, plain_seedmap, seed_hash):
        """32-bit hashes are the only keys; nothing else raises."""
        assert plain_seedmap.query(seed_hash).size == 0
        assert plain_seedmap.location_count(seed_hash) == 0
        assert seed_hash not in plain_seedmap
