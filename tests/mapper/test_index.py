"""Tests for the minimizer index."""

from oracles import align as align_oracle
import numpy as np
import pytest

from repro.genome import ReferenceGenome, generate_reference, \
    random_sequence
from repro.genome.reference import RepeatProfile
from repro.mapper import MinimizerIndex, extract_minimizers


@pytest.fixture(scope="module")
def index(plain_reference):
    return MinimizerIndex.build(plain_reference, k=15, w=10)


class TestMinimizerIndex:
    def test_lookup_finds_reference_minimizers(self, plain_reference,
                                               index):
        codes = plain_reference.fetch("chr1", 3000, 3300)
        found = 0
        for position, hash_value in zip(*extract_minimizers(codes, 15, 10)):
            if 3000 + position in index.lookup(hash_value).tolist():
                found += 1
        assert found >= 10

    def test_positions_sorted(self, index):
        for hash_value in index._table.keys[:100]:
            positions = index.lookup(hash_value)
            assert positions.size
            assert np.all(np.diff(positions) >= 0)

    def test_absent_hash(self, index):
        absent = index.lookup(2**40)
        assert absent.size == 0 and absent.dtype == np.int64

    @pytest.mark.parametrize("hash_value", [-1, 0, 2**64 - 1, 2**70])
    def test_any_integer_is_a_valid_probe(self, index, hash_value):
        """Was an OverflowError for -1 and 2**70 while SeedMap.query
        answered empty: the range check lives once, on the table."""
        found = index.lookup(hash_value)
        assert found.size == 0 and found.dtype == np.int64

    def test_lookup_is_read_only(self, index):
        """A caller's in-place edit must not reach the index."""
        hash_value = index._table.keys[0]
        before = index.lookup(hash_value).copy()
        with pytest.raises(ValueError):
            index.lookup(hash_value)[0] = -1
        with pytest.raises(ValueError):
            index.lookup(hash_value).sort()
        assert np.array_equal(index.lookup(hash_value), before)

    def test_lookup_all_is_lookup_of_each(self, plain_reference, index):
        _positions, hashes = extract_minimizers(
            plain_reference.fetch("chr1", 100, 400), 15, 10)
        hashes = np.concatenate([hashes, [np.uint64(2**40)], hashes[:3]])
        which, positions = index.lookup_all(hashes)
        expected = [(number, position)
                    for number, hash_value in enumerate(hashes)
                    for position in index.lookup(hash_value).tolist()]
        assert list(zip(which.tolist(), positions.tolist())) == expected

    def test_stats(self, index):
        assert index.stats.total_minimizers > 0
        assert index.stats.distinct_hashes == len(index)

    def test_occurrence_masking(self):
        unit = random_sequence(np.random.default_rng(8), 200)
        genome = ReferenceGenome({"rep": np.tile(unit, 30)})
        open_index = MinimizerIndex.build(genome, max_occurrences=None)
        masked = MinimizerIndex.build(genome, max_occurrences=5)
        assert masked.stats.masked_hashes > 0
        assert len(masked) < len(open_index)


class TestAgainstDictBuild:
    """The one-argsort CSR build == the dict-of-lists build of
    ``tests/oracles/align.py``: same ``IndexStats``, same positions for
    every hash, masked hashes absent."""

    @pytest.mark.parametrize("k,w,max_occurrences", [
        (15, 10, 2), (15, 10, None), (11, 5, 3), (6, 4, 8)])
    def test_same_stats_and_positions(self, k, w, max_occurrences):
        reference = generate_reference(
            np.random.default_rng(9), (6_000, 2_500),
            repeats=RepeatProfile.human_like())
        table, stats = align_oracle.build_index(reference, k, w,
                                                max_occurrences)
        index = MinimizerIndex.build(reference, k, w, max_occurrences)
        assert index.stats == stats
        assert len(index) == len(table)
        assert index._table.keys.tolist() == sorted(table)
        for hash_value, positions in table.items():
            found = index.lookup(hash_value)
            assert found.dtype == np.int64
            assert np.array_equal(found, positions)
        if max_occurrences is not None:
            assert stats.masked_hashes > 0
            kept = set(table)
            every, _stats = align_oracle.build_index(reference, k, w, None)
            for hash_value in sorted(set(every) - kept):
                assert index.lookup(hash_value).size == 0

    def test_reference_without_minimizers(self):
        reference = ReferenceGenome({"tiny": np.zeros(5, dtype=np.uint8)})
        index = MinimizerIndex.build(reference, k=15, w=10)
        assert len(index) == 0 and index.stats.total_minimizers == 0
        assert index.lookup(7).size == 0
        which, positions = index.lookup_all(np.array([7, 9],
                                                     dtype=np.uint64))
        assert which.size == 0 and positions.size == 0
