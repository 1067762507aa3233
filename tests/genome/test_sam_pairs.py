"""Tests for SAM mate fields (RNEXT/PNEXT/TLEN and pair flags)."""

import numpy as np

from repro.genome import AlignmentRecord, Cigar


def rec(name, chrom, pos, strand="+", mate=1, cigar="150="):
    return AlignmentRecord(name, chrom, pos, strand=strand,
                           cigar=Cigar.parse(cigar), mate=mate,
                           mapped=True)


class TestSetMate:
    def test_proper_pair_fields(self):
        r1 = rec("p/1", "chr1", 1000, "+", 1)
        r2 = rec("p/2", "chr1", 1200, "-", 2)
        r1.set_mate(r2)
        r2.set_mate(r1)
        assert r1.proper_pair and r2.proper_pair
        assert r1.mate_chromosome == "chr1"
        assert r1.mate_position == 1200
        assert r1.mate_strand == "-"
        # TLEN: leftmost record positive, rightmost negative.
        assert r1.template_length == 1200 + 150 - 1000
        assert r2.template_length == -(1200 + 150 - 1000)

    def test_cross_chromosome_not_proper(self):
        r1 = rec("p/1", "chr1", 1000)
        r2 = rec("p/2", "chr2", 1000, "-", 2)
        r1.set_mate(r2)
        assert not r1.proper_pair
        assert r1.mate_chromosome == "chr2"
        assert r1.template_length == 0

    def test_unmapped_mate_ignored(self):
        r1 = rec("p/1", "chr1", 1000)
        r1.set_mate(AlignmentRecord("p/2", mapped=False, mate=2))
        assert r1.mate_chromosome is None
        assert not r1.proper_pair


class TestSamFlags:
    def test_proper_pair_flags(self):
        r1 = rec("p/1", "chr1", 1000, "+", 1)
        r2 = rec("p/2", "chr1", 1200, "-", 2)
        r1.set_mate(r2)
        fields = r1.to_sam_line().split("\t")
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
        fields = r1.to_sam_line().split("\t")
        assert int(fields[1]) & 8  # mate placement unknown
        assert fields[6] == "*"

    def test_cross_chromosome_rnext_named(self):
        r1 = rec("p/1", "chr1", 1000)
        r2 = rec("p/2", "chr2", 500, "-", 2)
        r1.set_mate(r2)
        fields = r1.to_sam_line().split("\t")
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
