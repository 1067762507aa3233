"""Eager mapping (``GenPairPipeline.map_pairs``): inputs, chunking
edges, unequal read lengths, chromosome boundaries, stats folding.

Equivalence with the scalar oracle — per query and per result, at every
chunk size — lives in ``test_dataflow_oracle.py``; the worker pool in
``test_stream_executor.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import GenPairPipeline, PipelineStats
from repro.core.pipeline import merge_stats
from repro.genome import (ErrorModel, ReadSimulator, generate_reference,
                          reverse_complement)


class TestMapPairs:
    def test_accepts_tuples_and_names(self, plain_reference,
                                      plain_seedmap, clean_pairs):
        pair = clean_pairs[0]
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        named, unnamed = pipeline.map_pairs(
            [(pair.read1.codes, pair.read2.codes, "tup"),
             (pair.read1.codes, pair.read2.codes)])
        assert named.name == "tup"
        assert unnamed.name == "pair1"
        assert named.mapped

    def test_rejects_bad_chunk_size(self, plain_reference, plain_seedmap):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        with pytest.raises(ValueError):
            pipeline.map_pairs([], chunk_size=0)

    def test_empty_batch(self, plain_reference, plain_seedmap):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        assert pipeline.map_pairs([]) == []
        assert pipeline.stats.pairs_total == 0


class TestStatsMerge:
    def test_stats_merge_adds_every_counter(self):
        left = PipelineStats(pairs_total=3, light_mapped=2,
                             filter_iterations=10, traffic_bytes=100)
        right = PipelineStats(pairs_total=2, light_mapped=1,
                              filter_iterations=5, exact_pairs=1)
        merge_stats(left, right)
        assert left.pairs_total == 5
        assert left.light_mapped == 3
        assert left.filter_iterations == 15
        assert left.traffic_bytes == 100
        assert left.exact_pairs == 1
        # Nothing lost: merging two fresh instances stays all-zero.
        merged = PipelineStats()
        merge_stats(merged, PipelineStats())
        for spec in dataclasses.fields(merged):
            assert getattr(merged, spec.name) == 0


class TestUnequalReadLengths:
    @pytest.fixture()
    def unequal_pair(self, plain_reference):
        # 140bp keeps the shorter read above the light-alignment quality
        # threshold (perfect 280 >= 276) while exercising unequal lengths.
        read1 = plain_reference.fetch("chr1", 5000, 5150)
        read2 = reverse_complement(plain_reference.fetch("chr1", 5240,
                                                         5380))
        return read1, read2

    def test_exact_pair_uses_per_read_perfect_scores(self, plain_reference,
                                                     plain_seedmap,
                                                     unequal_pair):
        read1, read2 = unequal_pair
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        result = pipeline.map_pair(read1, read2, "uneq")
        assert result.stage == "light"
        # 150bp at +2/base plus 140bp at +2/base — not 2 * either read.
        assert result.joint_score == 2 * 150 + 2 * 140
        assert pipeline.stats.exact_pairs == 1


class TestChromosomeBoundary:
    @pytest.fixture(scope="class")
    def two_chromosomes(self):
        return generate_reference(np.random.default_rng(23),
                                  (30_000, 30_000), repeats=None)

    def test_cross_boundary_pair_rejected(self, two_chromosomes):
        """A pair whose mates straddle the chr1/chr2 boundary is within Δ
        in linear coordinates but must not be emitted as a joint
        candidate (regression: the filter used to pair them)."""
        reference = two_chromosomes
        pipeline = GenPairPipeline(reference)
        read1 = reference.fetch("chr1", 29_850, 30_000)
        read2 = reverse_complement(reference.fetch("chr2", 50, 200))
        result = pipeline.map_pair(read1, read2, "straddle")
        assert result.stage in ("unmapped", "full_dp")
        assert pipeline.stats.filter_fallback >= 1

    def test_mapped_pairs_never_span_chromosomes(self, two_chromosomes):
        reference = two_chromosomes
        simulator = ReadSimulator(reference,
                                  error_model=ErrorModel.perfect(),
                                  seed=29)
        pipeline = GenPairPipeline(reference)
        for result in pipeline.map_pairs(simulator.simulate_pairs(100)):
            if result.stage in ("light", "dp_candidate"):
                assert (result.record1.chromosome
                        == result.record2.chromosome)
