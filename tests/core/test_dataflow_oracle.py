"""The chunk dataflow against the scalar oracle (``oracle.py``).

Two contracts: ``GenPairPipeline._resolve_chunk`` returns, query for
query and field for field, what per-seed hashing + ``SeedMap.query`` +
a per-read ``np.unique`` merge return; and whatever the chunk size —
including ``map_pair``'s chunk of one — results and ``PipelineStats``
equal the oracle's queries fed one pair at a time through the same
per-pair decision.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import GenPairPipeline
from repro.genome import ErrorModel, ReadSimulator, reverse_complement


def _load_oracle():
    # By path: the top-level name ``oracle`` belongs to tests/align's.
    spec = importlib.util.spec_from_file_location(
        "core_oracle", Path(__file__).with_name("oracle.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


def as_items(pairs):
    return [(pair.read1.codes, pair.read2.codes, pair.name)
            for pair in pairs]


@pytest.fixture(scope="module")
def giab_items(small_reference, donor):
    """The 500-pair GIAB-like set of the equivalence tests."""
    simulator = ReadSimulator(small_reference, donor=donor,
                              error_model=ErrorModel.giab_like(), seed=71)
    return as_items(simulator.simulate_pairs(500))


@pytest.fixture(scope="module")
def clean_items(clean_pairs):
    return as_items(clean_pairs)


@pytest.fixture(scope="module")
def unequal_items(plain_reference):
    """Unequal read lengths, both fragment orientations, and reads
    shorter than one seed (no offsets, no Seed Table access)."""
    # 140bp keeps the shorter read above the light-alignment quality
    # threshold (perfect 280 >= 276) while exercising unequal lengths.
    read1 = plain_reference.fetch("chr1", 5000, 5150)
    read2 = reverse_complement(plain_reference.fetch("chr1", 5240, 5380))
    return [(read1, read2, "a"),
            (reverse_complement(read2), reverse_complement(read1), "b"),
            (read1, read1[:40], "c"),
            (read2[:30], read1, "d"),
            (read1[:20], read2[:49], "e")]


def assert_same_queries(got, want):
    assert len(got) == len(want)
    for have, expect in zip(got, want):
        assert np.array_equal(have.candidates, expect.candidates)
        assert have.candidates.dtype == expect.candidates.dtype
        assert have.seed_hits == expect.seed_hits
        assert have.locations_fetched == expect.locations_fetched
        assert have.seed_table_accesses == expect.seed_table_accesses
        assert have.traffic_bytes == expect.traffic_bytes


class TestResolveChunk:
    def test_giab_like_set(self, small_reference, seedmap, giab_items):
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        assert_same_queries(pipeline._resolve_chunk(giab_items),
                            oracle.resolve_chunk(pipeline, giab_items))

    def test_clean_set(self, plain_reference, plain_seedmap, clean_items):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        got = pipeline._resolve_chunk(clean_items)
        assert_same_queries(got, oracle.resolve_chunk(pipeline,
                                                      clean_items))
        # An error-free pair hits with all three seeds in its true
        # orientation: the comparison is not between empty results.
        assert any(result.seed_hits == 3 for result in got)

    def test_unequal_and_short_reads(self, plain_reference, plain_seedmap,
                                     unequal_items):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        got = pipeline._resolve_chunk(unequal_items)
        assert_same_queries(got, oracle.resolve_chunk(pipeline,
                                                      unequal_items))
        # Pair "c": read 2 is 40bp — fr role 2 and rf role 1 carry no
        # seed, so no Seed Table access is charged for them.
        accesses = [result.seed_table_accesses for result in got[8:12]]
        assert accesses == [3, 0, 0, 3]
        # Pair "e": no read reaches one seed.
        assert all(result.seed_table_accesses == 0
                   and result.candidates.size == 0 for result in got[16:])

    def test_chunk_of_only_short_reads(self, plain_reference,
                                       plain_seedmap, unequal_items):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        items = unequal_items[4:]
        assert_same_queries(pipeline._resolve_chunk(items),
                            oracle.resolve_chunk(pipeline, items))

    def test_empty_chunk(self, plain_reference, plain_seedmap):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        assert pipeline._resolve_chunk([]) == []
        assert oracle.resolve_chunk(pipeline, []) == []


class TestOraclePartition:
    """The oracle's own seeding honours the role contract (what
    ``partition_pair``'s tests pinned while it lived under ``src/``)."""

    def test_orientations_and_roles(self):
        rng = np.random.default_rng(6)
        read1 = rng.integers(0, 4, size=150, dtype=np.uint8)
        read2 = rng.integers(0, 4, size=150, dtype=np.uint8)
        fr, rf = oracle.partition_pair(read1, read2)
        assert (fr.orientation, rf.orientation) == ("fr", "rf")
        assert len(fr.read1) + len(fr.read2) == 6
        rc1, rc2 = reverse_complement(read1), reverse_complement(read2)
        assert np.array_equal(fr.read1[0].codes, read1[:50])
        assert np.array_equal(fr.read2[0].codes, rc2[:50])
        assert np.array_equal(rf.read1[0].codes, read2[:50])
        assert np.array_equal(rf.read2[0].codes, rc1[:50])

    def test_query_pair_queries_both_reads(self, plain_reference,
                                           plain_seedmap):
        codes1 = plain_reference.fetch("chr1", 1000, 1150)
        codes2 = plain_reference.fetch("chr1", 1200, 1350)
        fr = oracle.partition_pair(codes1, reverse_complement(codes2))[0]
        result1, result2 = oracle.query_pair(plain_seedmap, fr.read1,
                                             fr.read2)
        assert 1000 in result1.candidates.tolist()
        assert 1200 in result2.candidates.tolist()


class TestChunkSizeEquivalence:
    @pytest.fixture(scope="class")
    def giab_want(self, small_reference, seedmap, giab_items,
                  result_signature):
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        results = oracle.map_pairs(pipeline, giab_items)
        return list(map(result_signature, results)), pipeline.stats

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 256])
    def test_map_pairs_matches_oracle(self, small_reference, seedmap,
                                      giab_items, giab_want, chunk_size,
                                      result_signature):
        want, want_stats = giab_want
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        got = pipeline.map_pairs(giab_items, chunk_size=chunk_size)
        assert list(map(result_signature, got)) == want
        assert pipeline.stats == want_stats
        # The set exercises every arc, not just the light-aligned one.
        assert want_stats.light_mapped and want_stats.light_fallback

    def test_map_pair_loop_matches_oracle(self, small_reference, seedmap,
                                          giab_items, giab_want,
                                          result_signature):
        want, want_stats = giab_want
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        got = [pipeline.map_pair(read1, read2, name)
               for read1, read2, name in giab_items]
        assert list(map(result_signature, got)) == want
        assert pipeline.stats == want_stats

    @pytest.mark.parametrize("chunk_size", [1, 2, 256])
    def test_clean_and_unequal_pairs(self, plain_reference, plain_seedmap,
                                     clean_items, unequal_items,
                                     chunk_size, result_signature):
        items = clean_items[:30] + unequal_items
        scalar = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        want = oracle.map_pairs(scalar, items)
        chunked = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        got = chunked.map_pairs(items, chunk_size=chunk_size)
        assert list(map(result_signature, got)) \
            == list(map(result_signature, want))
        assert chunked.stats == scalar.stats
