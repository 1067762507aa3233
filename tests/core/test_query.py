"""Tests for SeedMap Query."""

import numpy as np

from repro.core import resolve_reads
from repro.core.seeding import seed_offsets
from repro.core.seedmap import LOCATION_ENTRY_BYTES, SEED_TABLE_ENTRY_BYTES
from repro.hashing import hash_reads_batch


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

    def test_one_surviving_seed_places_the_read(self, plain_reference,
                                                plain_seedmap):
        codes = plain_reference.fetch("chr1", 5000, 5150).copy()
        # Corrupt the middle and last seeds; only the first still hits,
        # and one exact seed is enough to make the true start a candidate.
        codes[60] = (codes[60] + 1) % 4
        codes[110] = (codes[110] + 1) % 4
        result = query(plain_seedmap, codes)
        assert result.seed_hits == 1
        assert 5000 in result.candidates.tolist()

    def test_fetched_locations_count_every_hit_of_every_seed(
            self, small_reference, seedmap):
        """Against the per-seed scalar probe: on a repeat-rich reference
        the fetched locations add up to the un-deduplicated hit count,
        while the candidates are the deduplicated implied starts."""
        codes = small_reference.fetch("chr1", 5000, 5150)
        offsets = seed_offsets(len(codes), 50)
        windows = np.stack([codes[offset:offset + 50] for offset in offsets])
        implied = [seedmap.query(hash_value) - offset
                   for offset, hash_value in
                   zip(offsets, hash_reads_batch(windows).tolist())]
        result = query(seedmap, codes)
        assert result.locations_fetched == sum(hits.size for hits in implied)
        assert result.locations_fetched >= 3
        assert np.array_equal(result.candidates,
                              np.unique(np.concatenate(implied)))

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
