"""Edge-case tests for the baseline mapper."""

import numpy as np
import pytest

from repro.genome import ReferenceGenome, random_sequence, \
    reverse_complement
from repro.mapper import MapperConfig, MinimizerIndex, Mm2LikeMapper


class TestAmbiguity:
    def test_duplicated_locus_low_mapq(self):
        """A read from an exactly duplicated region cannot be placed
        uniquely: mapq must reflect the ambiguity."""
        rng = np.random.default_rng(41)
        segment = random_sequence(rng, 3000)
        genome = ReferenceGenome({
            "chr1": np.concatenate([random_sequence(rng, 2000), segment,
                                    random_sequence(rng, 2000), segment,
                                    random_sequence(rng, 2000)])})
        mapper = Mm2LikeMapper(genome)
        read = segment[1000:1150]
        record = mapper.map_read(read, "dup")
        assert record.mapped
        assert record.mapq <= 3

    def test_unique_locus_high_mapq(self, plain_reference):
        mapper = Mm2LikeMapper(plain_reference)
        record = mapper.map_read(plain_reference.fetch("chr1", 11_000,
                                                       11_150), "uniq")
        assert record.mapq == 60


class TestConfig:
    def test_min_score_fraction_rejects_weak(self, plain_reference):
        strict = Mm2LikeMapper(plain_reference,
                               config=MapperConfig(
                                   min_score_fraction=0.99))
        codes = plain_reference.fetch("chr1", 12_000, 12_150).copy()
        codes[75] = (codes[75] + 1) % 4  # score 290 < 0.99 * 300
        assert not strict.map_read(codes, "strict").mapped

    def test_shared_index_reused(self, plain_reference):
        index = MinimizerIndex.build(plain_reference)
        mapper_a = Mm2LikeMapper(plain_reference, index=index)
        mapper_b = Mm2LikeMapper(plain_reference, index=index)
        assert mapper_a.index is mapper_b.index

    def test_max_insert_bounds_pairing(self, plain_reference):
        mapper = Mm2LikeMapper(plain_reference,
                               config=MapperConfig(max_insert=250))
        read1 = plain_reference.fetch("chr1", 1000, 1150)
        read2 = reverse_complement(plain_reference.fetch("chr1", 2000,
                                                         2150))
        assert mapper.map_pair(read1, read2, "far").stage != "proper_pair"


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


class TestStatsIntegrity:
    def test_pair_counters(self, plain_reference, clean_pairs):
        mapper = Mm2LikeMapper(plain_reference)
        for pair in clean_pairs[:10]:
            mapper.map_pair(pair.read1.codes, pair.read2.codes,
                            pair.name)
        assert mapper.stats.pairs_seen == 10
        assert mapper.stats.pairs_proper >= 9
        assert mapper.stats.anchors_total > 0

    def test_indel_read_cigar(self, plain_reference):
        mapper = Mm2LikeMapper(plain_reference)
        template = plain_reference.fetch("chr1", 14_000, 14_155)
        read = np.concatenate([template[:70], template[73:]])[:150]
        record = mapper.map_read(read, "del3")
        assert record.mapped
        assert record.cigar.count("D") == 3
        assert record.score == 300 - (12 + 3 * 2)


class TestWindowErrors:
    """Only an out-of-range coordinate means "no window here"; any other
    failure of the reference is a bug and must surface."""

    def test_reference_error_is_no_window(self, plain_reference):
        mapper = Mm2LikeMapper(plain_reference)
        assert mapper._window(10 ** 9, 150) is None

    @pytest.mark.parametrize("site", ["window", "rescue_mate"])
    def test_other_errors_propagate(self, plain_reference, monkeypatch,
                                    site):
        mapper = Mm2LikeMapper(plain_reference)
        codes = plain_reference.fetch("chr1", 5000, 5150)
        (anchor, *_), = mapper._placements([codes])

        def broken(linear):
            raise RuntimeError("coordinate table corrupt")

        monkeypatch.setattr(mapper.reference, "from_linear", broken)
        with pytest.raises(RuntimeError, match="corrupt"):
            if site == "window":
                mapper._window(1000, 150)
            else:
                mapper._rescue_mate(anchor, codes)
