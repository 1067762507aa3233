"""Tests for SAM mate fields (RNEXT/PNEXT/TLEN and pair flags)."""

from repro.genome import AlignmentRecord, Cigar, sam_lines
from repro.genome.sam import mapped_pair


def rec(name, chrom, pos, strand="+", mate=1, cigar="150="):
    return AlignmentRecord(name, chrom, pos, strand=strand,
                           cigar=Cigar.parse(cigar), mate=mate,
                           mapped=True)


def pair(place1, place2, cigar1="150=", cigar2="150="):
    """``mapped_pair`` of two ``(chromosome, position, strand)`` mates."""
    return mapped_pair("p", 60, (*place1, Cigar.parse(cigar1), 150, None,
                                 "light"),
                       (*place2, Cigar.parse(cigar2), 140, None, "dp"))


class TestMappedPair:
    def test_proper_pair_fields(self):
        r1, r2 = pair(("chr1", 1000, "+"), ("chr1", 1200, "-"))
        assert (r1.query_name, r1.mate, r2.query_name, r2.mate) \
            == ("p/1", 1, "p/2", 2)
        assert (r1.score, r1.method, r2.score, r2.method) \
            == (150, "light", 140, "dp")
        assert r1.mapped and r2.mapped and r1.mapq == r2.mapq == 60
        assert r1.proper_pair and r2.proper_pair
        assert r1.mate_chromosome == "chr1"
        assert r1.mate_position == 1200
        assert r1.mate_strand == "-"
        assert (r2.mate_chromosome, r2.mate_position, r2.mate_strand) \
            == ("chr1", 1000, "+")
        # TLEN: leftmost record positive, rightmost negative.
        assert r1.template_length == 1200 + 150 - 1000
        assert r2.template_length == -(1200 + 150 - 1000)

    def test_read_two_leftmost(self):
        r1, r2 = pair(("chr1", 1200, "-"), ("chr1", 1000, "+"),
                      cigar1="100=")
        assert r1.template_length == -(1200 + 100 - 1000)
        assert r2.template_length == 1200 + 100 - 1000

    def test_equal_starts_both_positive(self):
        r1, r2 = pair(("chr1", 1000, "+"), ("chr1", 1000, "-"),
                      cigar2="140=")
        assert r1.template_length == r2.template_length == 150

    def test_contained_mate_spans_the_longer(self):
        r1, r2 = pair(("chr1", 1000, "+"), ("chr1", 1010, "-"),
                      cigar2="50=")
        assert (r1.template_length, r2.template_length) == (150, -150)

    def test_cross_chromosome_not_proper(self):
        r1, r2 = pair(("chr1", 1000, "+"), ("chr2", 1000, "-"))
        assert not r1.proper_pair and not r2.proper_pair
        assert r1.mate_chromosome == "chr2"
        assert r2.mate_chromosome == "chr1"
        assert r1.template_length == r2.template_length == 0


class TestSamFlags:
    def test_proper_pair_flags(self):
        r1, _r2 = pair(("chr1", 1000, "+"), ("chr1", 1200, "-"))
        fields = sam_lines([r1])[0].split("\t")
        flag = int(fields[1])
        assert flag & 1    # paired
        assert flag & 2    # proper pair
        assert flag & 32   # mate reverse
        assert flag & 64   # first in pair
        assert fields[6] == "="
        assert fields[7] == "1201"  # 1-based PNEXT
        assert fields[8] == "350"

    def test_mate_unmapped_flag(self):
        r1 = rec("p/1", "chr1", 1000)
        fields = sam_lines([r1])[0].split("\t")
        assert int(fields[1]) & 8  # mate placement unknown
        assert fields[6] == "*"

    def test_cross_chromosome_rnext_named(self):
        r1, _r2 = pair(("chr1", 1000, "+"), ("chr2", 500, "-"))
        fields = sam_lines([r1])[0].split("\t")
        assert fields[6] == "chr2"
        assert fields[7] == "501"


class TestPipelineSetsMates:
    def test_tlen_matches_insert(self, plain_reference, plain_seedmap,
                                 clean_pairs):
        from repro.core import GenPairPipeline
        pipeline = GenPairPipeline(plain_reference,
                                   seedmap=plain_seedmap)
        pair = clean_pairs[0]
        result = pipeline.map_pair(pair.read1.codes, pair.read2.codes,
                                   pair.name)
        assert result.record1.proper_pair
        assert result.record1.template_length == pair.insert_size
        assert result.record2.template_length == -pair.insert_size

    def test_mapper_sets_mates(self, plain_reference, clean_pairs):
        from repro.mapper import Mm2LikeMapper
        mapper = Mm2LikeMapper(plain_reference)
        pair = clean_pairs[1]
        result = mapper.map_pair(pair.read1.codes, pair.read2.codes,
                                 pair.name)
        rec1, rec2 = result.records
        assert result.stage == "proper_pair"
        assert rec1.proper_pair
        assert rec1.mate_position == rec2.position
