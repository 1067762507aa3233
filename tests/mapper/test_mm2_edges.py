"""Edge-case tests for the baseline mapper."""

import numpy as np
import pytest

from repro.genome import reverse_complement, sam_lines
from repro.mapper import MinimizerIndex, Mm2LikeMapper
from repro.mapper.mm2 import MAX_INSERT, MIN_SCORE_FRACTION


class TestConfig:
    def test_min_score_fraction_rejects_weak(self, plain_reference,
                                             map_alone):
        """A read whose best alignment scores under the floor (40% of
        perfect) comes out unmapped, though it has a placement."""
        mapper = Mm2LikeMapper(plain_reference)
        codes = plain_reference.fetch("chr1", 12_000, 12_150).copy()
        codes[106:] = (codes[106:] + 1) % 4  # 44 mismatches in the tail
        (best, *_), = mapper._placements([codes])
        assert 0 < best.score < MIN_SCORE_FRACTION * 300
        assert not map_alone(mapper, codes, "weak").mapped

    def test_shared_index_reused(self, plain_reference):
        index = MinimizerIndex.build(plain_reference)
        mapper_a = Mm2LikeMapper(plain_reference, index=index)
        mapper_b = Mm2LikeMapper(plain_reference, index=index)
        assert mapper_a.index is mapper_b.index

    def test_max_insert_bounds_pairing(self, plain_reference):
        mapper = Mm2LikeMapper(plain_reference)
        start2 = 1000 + MAX_INSERT + 150
        read1 = plain_reference.fetch("chr1", 1000, 1150)
        read2 = reverse_complement(plain_reference.fetch("chr1", start2,
                                                         start2 + 150))
        result = mapper.map_pair(read1, read2, "far")
        assert result.stage == "mapped"
        assert result.record2.position == start2


class TestRescueWindow:
    """The rescue window lives on the anchor's chromosome, clamped to
    it: near the start of any chromosome but the first, a ``-`` anchor
    used to get the previous chromosome's tail searched instead."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.genome import generate_reference

        reference = generate_reference(np.random.default_rng(5),
                                       (20_000, 20_000, 20_000),
                                       repeats=None)
        return reference, MinimizerIndex.build(reference)

    @pytest.mark.parametrize("start", [100, 19_400])
    @pytest.mark.parametrize("unseeded", [1, 2])
    def test_mate_rescued_at_both_edges_of_chr2(self, world, start,
                                                unseeded):
        reference, index = world
        mapper = Mm2LikeMapper(reference, index=index)
        reads = [reference.fetch("chr2", start, start + 150),
                 reference.fetch("chr2", start + 200, start + 350)]
        # Every 10th base substituted: no 15-mer survives, so only
        # rescue from the other mate (the anchor) can place this one.
        reads[unseeded - 1] = reads[unseeded - 1].copy()
        reads[unseeded - 1][::10] = (reads[unseeded - 1][::10] + 1) % 4
        result = mapper.map_pair(reads[0], reverse_complement(reads[1]),
                                 "edge")
        assert result.stage == "proper_pair"
        assert mapper.stats.mate_rescues == 1
        assert [(record.chromosome, record.position, record.strand)
                for record in result.records] \
            == [("chr2", start, "+"), ("chr2", start + 200, "-")]


class TestCrossChromosomePair:
    """Two placements on different chromosomes are never a proper pair,
    however close their linear coordinates: read 1 forward from the last
    200 bp of chr1, read 2 reverse from the first 210 bp of chr2."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.genome import generate_reference

        reference = generate_reference(np.random.default_rng(7),
                                       (20_000, 15_000), repeats=None)
        return (reference, MinimizerIndex.build(reference),
                reference.fetch("chr1", 19_800, 19_950),
                reverse_complement(reference.fetch("chr2", 60, 210)))

    @staticmethod
    def check(result):
        assert [(record.chromosome, record.position, record.strand,
                 record.mapq,
                 int(sam_lines([record])[0].split("\t")[1]) & 0x2)
                for record in result.records] \
            == [("chr1", 19_800, "+", 20, 0), ("chr2", 60, "-", 20, 0)]

    def test_mm2_maps_each_read_on_its_own(self, world):
        reference, index, read1, read2 = world
        mapper = Mm2LikeMapper(reference, index=index)
        result = mapper.map_pair(read1, read2, "cross")
        assert result.stage == "mapped"
        assert mapper.stats.pairs_proper == 0
        self.check(result)

    def test_genpair_fallback_gives_the_same_records(self, world):
        from repro.core import STAGE_FULL_DP, GenPairPipeline

        reference, index, read1, read2 = world
        pipeline = GenPairPipeline(
            reference, fallback=Mm2LikeMapper(reference, index=index))
        result = pipeline.map_pair(read1, read2, "cross")
        assert result.stage == STAGE_FULL_DP
        self.check(result)


class TestStatsIntegrity:
    def test_pair_counters(self, plain_reference, clean_pairs):
        mapper = Mm2LikeMapper(plain_reference)
        for pair in clean_pairs[:10]:
            mapper.map_pair(pair.read1.codes, pair.read2.codes,
                            pair.name)
        assert mapper.stats.pairs_seen == 10
        assert mapper.stats.pairs_proper >= 9
        assert mapper.stats.anchors_total > 0

    def test_indel_read_cigar(self, plain_reference, map_alone):
        mapper = Mm2LikeMapper(plain_reference)
        template = plain_reference.fetch("chr1", 14_000, 14_155)
        read = np.concatenate([template[:70], template[73:]])[:150]
        record = map_alone(mapper, read, "del3")
        assert record.mapped
        assert record.cigar.count("D") == 3
        assert record.score == 300 - (12 + 3 * 2)


class TestWindowErrors:
    """Only an out-of-range coordinate means "no window here"; any other
    failure of the reference is a bug and must surface."""

    def test_reference_error_is_no_window(self, plain_reference):
        mapper = Mm2LikeMapper(plain_reference)
        codes = plain_reference.fetch("chr1", 5000, 5150)
        assert mapper._align_chains([(codes, "+", 10 ** 9)]) == [None]
        assert mapper.stats.dp_cells_alignment == 0

    @pytest.mark.parametrize("site", ["window", "rescue_mate"])
    def test_other_errors_propagate(self, plain_reference, monkeypatch,
                                    site):
        mapper = Mm2LikeMapper(plain_reference)
        codes = plain_reference.fetch("chr1", 5000, 5150)
        (anchor, *_), = mapper._placements([codes])

        def broken(*args, **kwargs):
            raise RuntimeError("coordinate table corrupt")

        # Chain windows come from one ``windows`` call; a rescue asks
        # ``window`` for its one insert window.
        method = "windows" if site == "window" else "window"
        monkeypatch.setattr(mapper.reference, method, broken)
        with pytest.raises(RuntimeError, match="corrupt"):
            if site == "window":
                mapper._placements([codes])
            else:
                mapper._rescue([(anchor, codes)])
