"""Tests for the end-to-end GenPair pipeline."""

import numpy as np
import pytest

from repro.core import (GenPairConfig, GenPairPipeline, STAGE_DP_CANDIDATE,
                        STAGE_FULL_DP, STAGE_LIGHT, STAGE_UNMAPPED)
from repro.genome import (METHOD_EXACT, ErrorModel, PairedEndProfile,
                          ReadSimulator, random_sequence,
                          reverse_complement)


@pytest.fixture(scope="module")
def pipeline(plain_reference, plain_seedmap):
    return GenPairPipeline(plain_reference, seedmap=plain_seedmap)


class TestCleanPairs:
    def test_perfect_pairs_light_aligned(self, pipeline, clean_pairs):
        for pair in clean_pairs[:20]:
            result = pipeline.map_pair(pair.read1.codes, pair.read2.codes,
                                       pair.name)
            assert result.stage == STAGE_LIGHT
            assert result.record1.position == pair.read1.ref_start
            assert result.record2.position == pair.read2.ref_start
            assert result.record1.strand == "+"
            assert result.record2.strand == "-"
            assert result.joint_score == 600

    def test_error_free_2x100_pairs_light_aligned(self, pipeline,
                                                  plain_reference):
        """The acceptance bar follows the read length: a perfect
        100-base read scores 200, under the 150-base threshold of 276."""
        pairs = ReadSimulator(
            plain_reference, error_model=ErrorModel.perfect(),
            profile=PairedEndProfile(read_length=100, insert_mean=300.0),
            seed=29).simulate_pairs(10)
        for pair in pairs:
            result = pipeline.map_pair(pair.read1.codes, pair.read2.codes,
                                       pair.name)
            assert result.stage == STAGE_LIGHT
            assert [record.method for record in result.records] \
                == [METHOD_EXACT, METHOD_EXACT]
            assert result.record1.position == pair.read1.ref_start
            assert result.joint_score == 400

    def test_swapped_pair_maps_in_rf_orientation(self, pipeline,
                                                 clean_pairs):
        pair = clean_pairs[0]
        result = pipeline.map_pair(pair.read2.codes, pair.read1.codes,
                                   "swapped")
        assert result.mapped
        assert result.orientation == "rf"
        # Physical read 1 (originally read2) must map to read2's locus.
        assert result.record1.position == pair.read2.ref_start
        assert result.record1.strand == "-"
        assert result.record2.position == pair.read1.ref_start

    def test_record_naming_and_mates(self, pipeline, clean_pairs):
        result = pipeline.map_pair(clean_pairs[1].read1.codes,
                                   clean_pairs[1].read2.codes, "p")
        assert result.record1.query_name == "p/1"
        assert result.record1.mate == 1
        assert result.record2.query_name == "p/2"
        assert result.record2.mate == 2


class TestEditedPairs:
    def test_single_mismatch_still_light(self, plain_reference,
                                         plain_seedmap, clean_pairs):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        pair = clean_pairs[2]
        read1 = pair.read1.codes.copy()
        read1[75] = (read1[75] + 1) % 4
        result = pipeline.map_pair(read1, pair.read2.codes, pair.name)
        assert result.stage == STAGE_LIGHT
        assert result.record1.score == 290

    def test_complex_read_goes_dp_candidate(self, plain_reference,
                                            plain_seedmap, clean_pairs):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        pair = clean_pairs[3]
        # Two separated 1-base deletions: not light-alignable, but the
        # first 50bp seed is intact so a candidate exists.
        codes = pair.read1.codes
        read1 = np.concatenate([codes[:60], codes[61:100], codes[101:],
                                random_sequence(np.random.default_rng(0),
                                                2)])[:150]
        result = pipeline.map_pair(read1, pair.read2.codes, pair.name)
        assert result.stage == STAGE_DP_CANDIDATE
        assert abs(result.record1.position - pair.read1.ref_start) <= 3

    def test_garbage_pair_unmapped_without_fallback(self, pipeline):
        rng = np.random.default_rng(5)
        result = pipeline.map_pair(random_sequence(rng, 150),
                                   random_sequence(rng, 150), "junk")
        assert result.stage == STAGE_UNMAPPED
        assert not result.record1.mapped
        assert pipeline.stats.unmapped >= 1

    def test_far_apart_pair_filtered(self, plain_reference, plain_seedmap):
        """Both reads exist in the genome but 20kb apart: Δ filter fails."""
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        read1 = plain_reference.fetch("chr1", 1000, 1150)
        read2 = reverse_complement(plain_reference.fetch("chr1", 21_000,
                                                         21_150))
        result = pipeline.map_pair(read1, read2, "distant")
        assert result.stage in (STAGE_UNMAPPED, STAGE_FULL_DP)
        assert pipeline.stats.filter_fallback >= 1


class TestStats:
    def test_stage_percentages_sum(self, plain_reference, plain_seedmap,
                                   sample_pairs, small_reference, seedmap):
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        pipeline.map_pairs(sample_pairs)
        stats = pipeline.stats
        assert stats.pairs_total == len(sample_pairs)
        buckets = (stats.light_mapped + stats.light_fallback
                   + stats.seedmap_fallback + stats.filter_fallback
                   + stats.residual_fallback)
        assert buckets == stats.pairs_total
        assert stats.genpair_mapped_pct > 60.0
        assert stats.light_aligned_pct > 50.0
        assert 0 < stats.mean_light_attempts < 40

    def test_fig10_ordering(self, small_reference, seedmap, sample_pairs):
        """Light fallback should dominate the other fallback arcs, as in
        Fig 10 (13.06% > 8.79% > 2.09%)."""
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        pipeline.map_pairs(sample_pairs)
        stats = pipeline.stats
        assert stats.light_fallback_pct < 40.0
        assert stats.seedmap_fallback_pct < 20.0

    def test_traffic_counted(self, pipeline, clean_pairs):
        before = pipeline.stats.traffic_bytes
        pipeline.map_pair(clean_pairs[4].read1.codes,
                          clean_pairs[4].read2.codes, "t")
        assert pipeline.stats.traffic_bytes > before


class TestFullFallback:
    def test_fallback_invoked_and_counted(self, plain_reference,
                                          plain_seedmap):
        from types import SimpleNamespace

        from repro.genome import AlignmentRecord, Cigar, MappingResult

        class FakeMapper:
            """The two things the pipeline asks of a fallback."""

            def __init__(self):
                self.calls = []
                self.stats = SimpleNamespace(dp_cells_chaining=7,
                                             dp_cells_alignment=0)

            def map_pairs(self, items):
                self.calls.append([name for _r1, _r2, name in items])
                self.stats.dp_cells_chaining += 45
                self.stats.dp_cells_alignment += 12300
                return [MappingResult(name=name, engine="mm2",
                                      stage="proper_pair",
                                      joint_score=200, records=(
                    AlignmentRecord(f"{name}/1", "chr1", 0,
                                    cigar=Cigar.parse("150="), score=100,
                                    mate=1),
                    AlignmentRecord(f"{name}/2", "chr1", 300,
                                    cigar=Cigar.parse("150="), score=100,
                                    mate=2)))
                        for _r1, _r2, name in items]

        fake = FakeMapper()
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap,
                                   fallback=fake)
        rng = np.random.default_rng(6)
        result = pipeline.map_pair(random_sequence(rng, 150),
                                   random_sequence(rng, 150), "fb")
        assert (result.engine, result.stage) == ("genpair", STAGE_FULL_DP)
        assert fake.calls == [["fb"]]
        assert pipeline.stats.dp_cells_full == 12345
        assert pipeline.stats.unmapped == 0

    def test_placed_pair_is_full_dp_with_its_cells(self, plain_reference,
                                                   plain_seedmap,
                                                   clean_pairs):
        """A pair GenPair cannot seed (every seed window broken) that
        the traditional mapper places."""
        from repro.mapper import Mm2LikeMapper

        mapper = Mm2LikeMapper(plain_reference)
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap,
                                   fallback=mapper)
        pair = clean_pairs[3]
        reads = []
        for codes in (pair.read1.codes, pair.read2.codes):
            codes = codes.copy()
            for pos in (25, 75, 125):  # one mismatch in each 50bp seed
                codes[pos] = (codes[pos] + 1) % 4
            reads.append(codes)
        result = pipeline.map_pair(*reads, "fb")
        assert pipeline.stats.seedmap_fallback == 1
        assert (result.engine, result.stage) == ("genpair", STAGE_FULL_DP)
        assert result.record1.mapped and result.record2.mapped
        assert result.record1.position == pair.read1.ref_start
        assert pipeline.stats.dp_cells_full \
            == (mapper.stats.dp_cells_chaining
                + mapper.stats.dp_cells_alignment) > 0

    def test_unplaceable_pairs_still_count_their_cells(
            self, plain_reference, plain_seedmap):
        """Random sequence around a 40 bp stub of reference: too short
        for a 50 bp seed, long enough to chain and be aligned — and
        rejected.  The DP cells were spent all the same, and the
        residual GenDP workload (§7.4) is sized from them."""
        from repro.mapper import Mm2LikeMapper

        rng = np.random.default_rng(6)
        items = []
        for number in range(5):
            start = 1000 + 2000 * number
            items.append((
                np.concatenate([plain_reference.fetch("chr1", start,
                                                      start + 40),
                                random_sequence(rng, 110)]),
                np.concatenate([random_sequence(rng, 110),
                                plain_reference.fetch("chr1", start + 300,
                                                      start + 340)]),
                f"stub{number}"))
        mapper = Mm2LikeMapper(plain_reference)
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap,
                                   fallback=mapper)
        results = pipeline.map_pairs(items)
        assert [(r.engine, r.stage) for r in results] \
            == [("genpair", STAGE_UNMAPPED)] * 5
        assert pipeline.stats.unmapped == 5
        assert mapper.stats.dp_cells_alignment > 0
        assert pipeline.stats.dp_cells_full \
            == (mapper.stats.dp_cells_chaining
                + mapper.stats.dp_cells_alignment)


class TestConfig:
    def test_small_delta_rejects_long_inserts(self, plain_reference,
                                              plain_seedmap, clean_pairs):
        tight = GenPairPipeline(
            plain_reference, seedmap=plain_seedmap,
            config=GenPairConfig(delta=10))
        loose = GenPairPipeline(
            plain_reference, seedmap=plain_seedmap,
            config=GenPairConfig(delta=500))
        pair = clean_pairs[5]
        assert loose.map_pair(pair.read1.codes, pair.read2.codes,
                              "x").mapped
        result = tight.map_pair(pair.read1.codes, pair.read2.codes, "x")
        assert result.stage in (STAGE_UNMAPPED, STAGE_FULL_DP)

    def test_map_pairs_accepts_tuples(self, pipeline, clean_pairs):
        pair = clean_pairs[6]
        results = pipeline.map_pairs([(pair.read1.codes, pair.read2.codes,
                                       "tup")])
        assert results[0].name == "tup"
        assert results[0].mapped
