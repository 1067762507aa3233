"""Unit tests for SAM-like records."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome import (AlignmentRecord, Cigar, MappingResult, SamWriter,
                          SequenceError, encode, sam_lines, write_sam)
from repro.genome.sam import METHOD_LIGHT
from repro.genome.sequence import N_CODE


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
        fields = sam_lines([record])[0].split("\t")
        assert fields[0] == "r1"
        assert int(fields[1]) & 16  # reverse strand
        assert int(fields[1]) & 64  # first in pair
        assert fields[2] == "chr1"
        assert fields[3] == "10"  # 1-based
        assert fields[5] == "4="
        assert fields[9] == "ACGT"
        assert "XM:Z:light" in fields

    def test_sam_line_unmapped(self):
        fields = sam_lines([AlignmentRecord("r2", mapped=False)])[0].split(
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

    def test_drain_writes_lazily_and_counts_lines(self, tmp_path):
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
            assert writer.drain(results) == 10
            assert writer.count == 10
        body = [line.split("\t")[0]
                for line in path.read_text().splitlines()
                if not line.startswith("@")]
        assert body == [f"p{i}/{mate}" for i in range(5)
                        for mate in (1, 2)]


@st.composite
def read_codes(draw):
    """A record's ``read_codes``: ``None``, empty, a plain read, one
    holding ``N``, or a negative-stride view (a strand ``-`` read)."""
    kind = draw(st.sampled_from(("none", "empty", "plain", "n", "view")))
    if kind == "none":
        return None
    if kind == "empty":
        return np.zeros(0, dtype=np.uint8)
    codes = np.array(draw(st.lists(st.integers(0, 3), min_size=1,
                                   max_size=40)), dtype=np.uint8)
    if kind == "n":
        codes[draw(st.integers(0, codes.size - 1))] = N_CODE
    if kind == "view":
        codes = np.concatenate((codes, codes))[::-2]
    return codes


class TestBatchDecode:
    """``sam_lines`` decodes a batch's SEQ in one ``translate``; every
    line is the record's own ``to_sam_line()``, which decodes its SEQ
    by itself."""

    @settings(deadline=None)
    @given(st.lists(st.lists(read_codes(), min_size=1, max_size=2),
                    max_size=6))
    def test_lines_equal_per_record_decode(self, groups):
        results = [MappingResult(f"p{index}", tuple(
            AlignmentRecord(f"p{index}/{mate}", "chr1", 10 * mate,
                            strand="-" if mate == 2 else "+",
                            cigar=Cigar.parse("4="), read_codes=codes,
                            mate=mate)
            for mate, codes in enumerate(group, start=1)))
            for index, group in enumerate(groups)]
        assert sam_lines(results) == [record.to_sam_line()
                                      for result in results
                                      for record in result.records]

    def test_out_of_alphabet_code_raises_the_same_error(self):
        bad = AlignmentRecord("r", read_codes=np.array([0, 7, 1],
                                                        dtype=np.uint8))
        good = AlignmentRecord("g", read_codes=encode("ACGT"))
        with pytest.raises(SequenceError) as single:
            bad.to_sam_line()
        with pytest.raises(SequenceError) as batch:
            sam_lines([good, bad])
        assert str(batch.value) == str(single.value)
