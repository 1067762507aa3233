"""Unit tests for SAM-like records."""

import numpy as np

from repro.genome import (AlignmentRecord, Cigar, MappingResult, SamWriter,
                          encode, write_sam)
from repro.genome.sam import METHOD_LIGHT


class TestAlignmentRecord:
    def test_reference_end(self):
        record = AlignmentRecord("r", "chr1", 100,
                                 cigar=Cigar.parse("50=2D100="))
        assert record.reference_end == 100 + 152

    def test_overlaps(self):
        record = AlignmentRecord("r", "chr1", 100,
                                 cigar=Cigar.parse("150="))
        assert record.overlaps("chr1", 200, 300)
        assert not record.overlaps("chr1", 250, 300)
        assert not record.overlaps("chr2", 100, 300)

    def test_unmapped_never_overlaps(self):
        record = AlignmentRecord("r", mapped=False)
        assert not record.overlaps("chr1", 0, 10**9)

    def test_sam_line_mapped(self):
        record = AlignmentRecord("r1", "chr1", 9, strand="-", mapq=60,
                                 cigar=Cigar.parse("4="), score=8,
                                 read_codes=encode("ACGT"), mate=1,
                                 method=METHOD_LIGHT)
        fields = record.to_sam_line().split("\t")
        assert fields[0] == "r1"
        assert int(fields[1]) & 16  # reverse strand
        assert int(fields[1]) & 64  # first in pair
        assert fields[2] == "chr1"
        assert fields[3] == "10"  # 1-based
        assert fields[5] == "4="
        assert fields[9] == "ACGT"
        assert "XM:Z:light" in fields

    def test_sam_line_unmapped(self):
        fields = AlignmentRecord("r2", mapped=False).to_sam_line().split(
            "\t")
        assert int(fields[1]) & 4
        assert fields[2] == "*"
        assert fields[5] == "*"


class TestWriteSam:
    def test_header_and_count(self, tmp_path, plain_reference):
        records = [AlignmentRecord("a", "chr1", 0,
                                   cigar=Cigar.parse("10=")),
                   AlignmentRecord("b", mapped=False)]
        path = tmp_path / "out.sam"
        count = write_sam(path, records, reference=plain_reference)
        assert count == 2
        lines = path.read_text().splitlines()
        assert lines[0].startswith("@HD")
        assert any(line.startswith("@SQ\tSN:chr1") for line in lines)
        assert len([l for l in lines if not l.startswith("@")]) == 2


class TestSamWriter:
    def _records(self):
        return [AlignmentRecord("a", "chr1", 0, cigar=Cigar.parse("10=")),
                AlignmentRecord("b", "chr1", 5, cigar=Cigar.parse("4=")),
                AlignmentRecord("c", mapped=False)]

    def test_incremental_matches_write_sam(self, tmp_path,
                                           plain_reference):
        records = self._records()
        eager = tmp_path / "eager.sam"
        write_sam(eager, records, reference=plain_reference)
        streamed = tmp_path / "streamed.sam"
        with SamWriter(streamed, reference=plain_reference) as writer:
            for record in records:
                writer.write_result(record)
            assert writer.count == 3
        assert streamed.read_text() == eager.read_text()

    def test_write_result_appends_both_records(self, tmp_path):
        result = MappingResult(name="p", records=(
            AlignmentRecord("p/1", "chr1", 0, cigar=Cigar.parse("4=")),
            AlignmentRecord("p/2", "chr1", 9, cigar=Cigar.parse("4="))))
        path = tmp_path / "pairs.sam"
        with SamWriter(path) as writer:
            writer.write_result(result)
            assert writer.count == 2
        body = [line for line in path.read_text().splitlines()
                if not line.startswith("@")]
        assert [line.split("\t")[0] for line in body] == ["p/1", "p/2"]

    def test_header_written_before_any_record(self, tmp_path,
                                              plain_reference):
        path = tmp_path / "empty.sam"
        with SamWriter(path, reference=plain_reference):
            pass
        lines = path.read_text().splitlines()
        assert lines[0].startswith("@HD")
        assert lines[1].startswith("@SQ")

    def test_drain_writes_lazily_and_counts_pairs(self, tmp_path):
        def fake_result(name):
            return MappingResult(name=name, records=(
                AlignmentRecord(f"{name}/1", "chr1", 0,
                                cigar=Cigar.parse("4=")),
                AlignmentRecord(f"{name}/2", "chr1", 9,
                                cigar=Cigar.parse("4="))))

        served = []

        def stream():
            for index in range(5):
                served.append(index)
                yield fake_result(f"p{index}")

        path = tmp_path / "drained.sam"
        with SamWriter(path) as writer:
            results = stream()
            assert served == []  # drain pulls, it does not pre-buffer
            assert writer.drain(results) == 5
            assert writer.count == 10
        body = [line.split("\t")[0]
                for line in path.read_text().splitlines()
                if not line.startswith("@")]
        assert body == [f"p{i}/{mate}" for i in range(5)
                        for mate in (1, 2)]
