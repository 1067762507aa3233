"""Tests for the frequency-threshold variant caller."""

import numpy as np
import pytest

from repro.genome import AlignmentRecord, Cigar
from repro.variants import CallerConfig, Pileup, call_variants


def add_reads(pileup, reference, chrom, pos, codes, count):
    for _ in range(count):
        pileup.add_record(AlignmentRecord(
            "r", chrom, pos, cigar=Cigar.parse(f"{len(codes)}="),
            read_codes=codes, mapped=True))


class TestCaller:
    def test_hom_snp_called(self, plain_reference):
        pileup = Pileup(plain_reference)
        codes = plain_reference.fetch("chr1", 100, 130).copy()
        codes[10] = (codes[10] + 1) % 4
        add_reads(pileup, plain_reference, "chr1", 100, codes, 10)
        calls = call_variants(pileup)
        assert len(calls) == 1
        assert calls[0].position == 110
        assert calls[0].kind == "SNP"
        assert calls[0].genotype == "hom"

    def test_het_snp_called(self, plain_reference):
        pileup = Pileup(plain_reference)
        ref_codes = plain_reference.fetch("chr1", 200, 230)
        alt_codes = ref_codes.copy()
        alt_codes[5] = (alt_codes[5] + 2) % 4
        add_reads(pileup, plain_reference, "chr1", 200, ref_codes, 6)
        add_reads(pileup, plain_reference, "chr1", 200, alt_codes, 6)
        calls = call_variants(pileup)
        assert len(calls) == 1
        assert calls[0].genotype == "het"

    def test_sequencing_noise_not_called(self, plain_reference):
        pileup = Pileup(plain_reference)
        ref_codes = plain_reference.fetch("chr1", 300, 330)
        noisy = ref_codes.copy()
        noisy[8] = (noisy[8] + 1) % 4
        add_reads(pileup, plain_reference, "chr1", 300, ref_codes, 19)
        add_reads(pileup, plain_reference, "chr1", 300, noisy, 1)
        assert call_variants(pileup) == []

    def test_n_read_base_is_no_allele(self, plain_reference):
        # A SAM SEQ may hold N (the reader keeps it, as the mappers'
        # records do): it counts toward depth but is never an ALT.
        pileup = Pileup(plain_reference)
        codes = plain_reference.fetch("chr1", 400, 430).copy()
        codes[10] = 4
        add_reads(pileup, plain_reference, "chr1", 400, codes, 10)
        assert pileup.column("chr1", 410).depth == 10
        assert call_variants(pileup) == []

    def test_low_depth_not_called(self, plain_reference):
        pileup = Pileup(plain_reference)
        codes = plain_reference.fetch("chr1", 400, 430).copy()
        codes[3] = (codes[3] + 1) % 4
        add_reads(pileup, plain_reference, "chr1", 400, codes, 3)
        assert call_variants(pileup,
                             CallerConfig(min_depth=6)) == []

    def test_indel_called(self, plain_reference):
        pileup = Pileup(plain_reference)
        window = plain_reference.fetch("chr1", 500, 540)
        with_del = np.concatenate([window[:10], window[12:]])
        for _ in range(10):
            pileup.add_record(AlignmentRecord(
                "r", "chr1", 500, cigar=Cigar.parse("10=2D28="),
                read_codes=with_del, mapped=True))
        calls = call_variants(pileup)
        indels = [c for c in calls if c.kind == "DEL"]
        assert len(indels) == 1
        assert indels[0].position == 509
        assert len(indels[0].ref) - len(indels[0].alt) == 2

    def test_calls_sorted(self, plain_reference):
        pileup = Pileup(plain_reference)
        for pos in (900, 700, 800):
            codes = plain_reference.fetch("chr1", pos, pos + 30).copy()
            codes[0] = (codes[0] + 1) % 4
            add_reads(pileup, plain_reference, "chr1", pos, codes, 8)
        calls = call_variants(pileup)
        positions = [c.position for c in calls]
        assert positions == sorted(positions)
