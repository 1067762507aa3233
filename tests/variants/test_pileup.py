"""Tests for pileup construction."""

import numpy as np
import pytest

from repro.genome import AlignmentRecord, Cigar
from repro.variants import Pileup


def record(reference, chrom, pos, cigar_text, codes, strand="+"):
    return AlignmentRecord("r", chrom, pos, strand=strand,
                           cigar=Cigar.parse(cigar_text),
                           read_codes=codes, mapped=True)


class TestPileup:
    def test_match_bases_counted(self, plain_reference):
        pileup = Pileup(plain_reference)
        codes = plain_reference.fetch("chr1", 100, 130)
        pileup.add_record(record(plain_reference, "chr1", 100, "30=",
                                 codes))
        column = pileup.column("chr1", 110)
        assert column.depth == 1
        assert column.base_counts == {int(codes[10]): 1}

    def test_reverse_strand_read_is_taken_as_stored(self, plain_reference):
        # A "-" record stores its read reverse-complemented, as SAM's
        # SEQ does: the bases the CIGAR walks, piled up unchanged.
        pileup = Pileup(plain_reference)
        window = plain_reference.fetch("chr1", 200, 230).copy()
        window[5] = (window[5] + 1) % 4
        pileup.add_record(record(plain_reference, "chr1", 200, "5=1X24=",
                                 window, strand="-"))
        column = pileup.column("chr1", 205)
        assert column.base_counts == {int(window[5]): 1}

    def test_mismatch_observed(self, plain_reference):
        pileup = Pileup(plain_reference)
        codes = plain_reference.fetch("chr1", 300, 330).copy()
        codes[7] = (codes[7] + 1) % 4
        pileup.add_record(record(plain_reference, "chr1", 300,
                                 "7=1X22=", codes))
        column = pileup.column("chr1", 307)
        assert column.base_counts == {int(codes[7]): 1}

    def test_insertion_anchored(self, plain_reference):
        pileup = Pileup(plain_reference)
        window = plain_reference.fetch("chr1", 400, 430)
        codes = np.concatenate([window[:10],
                                np.array([0, 1], dtype=np.uint8),
                                window[10:]])
        pileup.add_record(record(plain_reference, "chr1", 400,
                                 "10=2I20=", codes))
        column = pileup.column("chr1", 409)
        assert len(column.indel_counts) == 1
        (ref_allele, alt_allele), count = \
            next(iter(column.indel_counts.items()))
        assert count == 1
        assert len(alt_allele) - len(ref_allele) == 2

    def test_deletion_anchored(self, plain_reference):
        pileup = Pileup(plain_reference)
        window = plain_reference.fetch("chr1", 500, 530)
        codes = np.concatenate([window[:10], window[13:]])
        pileup.add_record(record(plain_reference, "chr1", 500,
                                 "10=3D17=", codes))
        column = pileup.column("chr1", 509)
        (ref_allele, alt_allele), _ = \
            next(iter(column.indel_counts.items()))
        assert len(ref_allele) - len(alt_allele) == 3

    def test_soft_clips_skipped(self, plain_reference):
        pileup = Pileup(plain_reference)
        window = plain_reference.fetch("chr1", 600, 620)
        codes = np.concatenate([np.zeros(5, dtype=np.uint8), window])
        pileup.add_record(record(plain_reference, "chr1", 600,
                                 "5S20=", codes))
        assert pileup.column("chr1", 600).base_counts == \
            {int(window[0]): 1}

    def test_unmapped_ignored(self, plain_reference):
        pileup = Pileup(plain_reference)
        used = pileup.add_records([AlignmentRecord("u", mapped=False)])
        assert used == 0
        assert pileup.chromosomes == []

    def test_depth_accumulates(self, plain_reference):
        pileup = Pileup(plain_reference)
        codes = plain_reference.fetch("chr1", 700, 730)
        for _ in range(5):
            pileup.add_record(record(plain_reference, "chr1", 700, "30=",
                                     codes))
        assert pileup.column("chr1", 715).depth == 5
