"""Edge-case tests for the GenPair pipeline."""

import numpy as np
import pytest

from repro.core import (GenPairConfig, GenPairPipeline, STAGE_LIGHT,
                        SeedMap)
from repro.genome import (ReferenceGenome, encode, random_sequence,
                          reverse_complement)


class TestWindowClamping:
    def test_read_at_chromosome_start(self, plain_reference,
                                      plain_seedmap):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        read1 = plain_reference.fetch("chr1", 0, 150)
        read2 = reverse_complement(plain_reference.fetch("chr1", 200,
                                                         350))
        result = pipeline.map_pair(read1, read2, "edge0")
        assert result.stage == STAGE_LIGHT
        assert result.record1.position == 0

    def test_read_at_chromosome_end(self, plain_reference,
                                    plain_seedmap):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        end = plain_reference.length("chr1")
        read1 = plain_reference.fetch("chr1", end - 350, end - 200)
        read2 = reverse_complement(plain_reference.fetch("chr1",
                                                         end - 150, end))
        result = pipeline.map_pair(read1, read2, "edgeN")
        assert result.mapped
        assert result.record2.position == end - 150


class TestCandidateCap:
    def test_max_joint_candidates_bounds_attempts(self):
        """A degenerate tandem-repeat genome floods the filter with
        joint candidates; the cap must bound light attempts."""
        unit = random_sequence(np.random.default_rng(3), 400)
        genome = ReferenceGenome({"rep": np.tile(unit, 60)})
        seedmap = SeedMap.build(genome, filter_threshold=None)
        config = GenPairConfig(max_joint_candidates=4,
                               filter_threshold=None)
        pipeline = GenPairPipeline(genome, seedmap=seedmap, config=config)
        read1 = genome.fetch("rep", 800, 950)
        read2 = reverse_complement(genome.fetch("rep", 1000, 1150))
        result = pipeline.map_pair(read1, read2, "rep")
        assert result.mapped
        # 2 orientations x 4 candidates x 2 reads at most.
        assert pipeline.stats.light_attempts <= 16

    def test_repeat_read_maps_to_some_copy(self):
        unit = random_sequence(np.random.default_rng(4), 500)
        genome = ReferenceGenome({"rep": np.tile(unit, 20)})
        seedmap = SeedMap.build(genome, filter_threshold=None)
        pipeline = GenPairPipeline(genome, seedmap=seedmap,
                                   config=GenPairConfig(
                                       filter_threshold=None))
        read1 = genome.fetch("rep", 1000, 1150)
        read2 = reverse_complement(genome.fetch("rep", 1200, 1350))
        result = pipeline.map_pair(read1, read2, "copy")
        assert result.stage == STAGE_LIGHT
        # Any copy is a perfect placement; gap must be preserved.
        gap = result.record2.position - result.record1.position
        assert gap == 200


class TestCounters:
    def test_exact_pairs_counter(self, plain_reference, plain_seedmap,
                                 clean_pairs):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        pipeline.map_pairs(clean_pairs[:10])
        assert pipeline.stats.exact_pairs >= 8

    def test_short_reads_fall_back(self, plain_reference, plain_seedmap):
        """Reads shorter than one seed can never be seeded."""
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        short = plain_reference.fetch("chr1", 100, 140)
        result = pipeline.map_pair(short, short, "short")
        assert not result.mapped
        assert pipeline.stats.seedmap_fallback == 1

    def test_methods_tagged(self, plain_reference, plain_seedmap,
                            clean_pairs):
        from repro.genome.sam import METHOD_EXACT, METHOD_LIGHT
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        pair = clean_pairs[7]
        exact = pipeline.map_pair(pair.read1.codes, pair.read2.codes,
                                  "exact")
        assert exact.record1.method == METHOD_EXACT
        read1 = pair.read1.codes.copy()
        read1[70] = (read1[70] + 1) % 4
        light = pipeline.map_pair(read1, pair.read2.codes, "light")
        assert light.record1.method == METHOD_LIGHT


class TestCustomThreshold:
    def test_lower_threshold_accepts_more_edits(self, plain_reference,
                                                plain_seedmap,
                                                clean_pairs):
        pair = clean_pairs[8]
        read1 = pair.read1.codes.copy()
        # 3 mismatches -> score 270 < 276; all inside the first seed so
        # the middle/last seeds still place the read.
        for pos in (5, 20, 35):
            read1[pos] = (read1[pos] + 1) % 4
        strict = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        loose = GenPairPipeline(plain_reference, seedmap=plain_seedmap,
                                config=GenPairConfig(score_threshold=260))
        assert strict.map_pair(read1, pair.read2.codes,
                               "s").stage != STAGE_LIGHT
        assert loose.map_pair(read1, pair.read2.codes,
                              "l").stage == STAGE_LIGHT


class TestWindowErrors:
    """Only an out-of-range coordinate means "no window here"."""

    def test_reference_error_is_no_window(self, plain_reference,
                                          plain_seedmap):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        assert pipeline._window(10 ** 9, 150) is None

    def test_other_errors_propagate(self, plain_reference, plain_seedmap,
                                    monkeypatch):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)

        def broken(*args, **kwargs):
            raise RuntimeError("coordinate table corrupt")

        monkeypatch.setattr(pipeline.reference, "window", broken)
        with pytest.raises(RuntimeError, match="corrupt"):
            pipeline._window(1000, 150)
