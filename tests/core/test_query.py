"""Tests for SeedMap Query."""

import numpy as np

from repro.core import resolve_reads
from repro.core.seedmap import LOCATION_ENTRY_BYTES, SEED_TABLE_ENTRY_BYTES


def query(seedmap, codes):
    """One read through the one front-end."""
    result, = resolve_reads(seedmap, [codes], 50)
    return result


class TestResolveOneRead:
    def test_candidates_are_implied_read_starts(self, plain_reference,
                                                plain_seedmap):
        pos = 2000
        codes = plain_reference.fetch("chr1", pos, pos + 150)
        result = query(plain_seedmap, codes)
        # All three seeds hit, and all agree on read start == pos.
        assert result.seed_hits == 3
        assert pos in result.candidates.tolist()

    def test_candidates_sorted_unique(self, small_reference, seedmap):
        codes = small_reference.fetch("chr1", 5000, 5150)
        result = query(seedmap, codes)
        candidates = result.candidates
        assert np.all(np.diff(candidates) > 0)

    def test_no_hits_for_foreign_read(self, plain_seedmap):
        from repro.genome import random_sequence
        codes = random_sequence(np.random.default_rng(99), 150)
        result = query(plain_seedmap, codes)
        # A random 150-mer's three 50bp seeds almost surely miss.
        assert result.seed_hits == 0
        assert result.candidates.size == 0

    def test_traffic_accounting(self, plain_reference, plain_seedmap):
        codes = plain_reference.fetch("chr1", 777, 927)
        result = query(plain_seedmap, codes)
        assert result.seed_table_accesses == 3
        assert result.locations_fetched >= 3
        expected = (3 * SEED_TABLE_ENTRY_BYTES
                    + result.locations_fetched * LOCATION_ENTRY_BYTES)
        assert result.traffic_bytes == expected

    def test_read_without_seeds(self, plain_reference, plain_seedmap):
        result = query(plain_seedmap,
                       plain_reference.fetch("chr1", 777, 807))
        assert result.candidates.size == 0
        assert result.seed_table_accesses == 0
