"""Unit tests for repro.genome.cigar."""

import pytest

from repro.genome.cigar import Cigar, CigarError


class TestParseRender:
    def test_round_trip(self):
        for text in ("150M", "100=1X49=", "50=2I98=", "10S140M", "75=5D75="):
            assert str(Cigar.parse(text)) == text

    def test_empty_renders_star(self):
        assert str(Cigar(())) == "*"
        assert Cigar.parse("*").ops == ()
        assert Cigar.parse("").ops == ()

    def test_malformed_rejected(self):
        for bad in ("M", "10", "10Z", "10M3", "-5M", "1.5M"):
            with pytest.raises(CigarError):
                Cigar.parse(bad)

    def test_zero_length_rejected(self):
        with pytest.raises(CigarError):
            Cigar(((0, "M"),))

    def test_invalid_op_rejected(self):
        with pytest.raises(CigarError):
            Cigar(((5, "Q"),))


class TestFromPairs:
    def test_merges_adjacent(self):
        cigar = Cigar.from_pairs([(10, "="), (5, "="), (1, "X")])
        assert cigar.ops == ((15, "="), (1, "X"))

    def test_drops_zero_lengths(self):
        cigar = Cigar.from_pairs([(0, "="), (3, "X"), (0, "I")])
        assert cigar.ops == ((3, "X"),)

    def test_perfect(self):
        assert str(Cigar.perfect(150)) == "150="
        assert Cigar.perfect(0).ops == ()


class TestAccounting:
    def test_read_and_reference_lengths(self):
        cigar = Cigar.parse("10S50=2I30=3D60=")
        assert cigar.read_length == 10 + 50 + 2 + 30 + 60
        assert cigar.reference_length == 50 + 30 + 3 + 60

    def test_count(self):
        cigar = Cigar.parse("5=1X5=2X5=")
        assert cigar.count("X") == 3
        assert cigar.count("=") == 15
        assert cigar.count("D") == 0

    def test_edit_runs(self):
        cigar = Cigar.parse("50=1X40=2I57=")
        assert cigar.edit_runs == ((1, "X"), (2, "I"))


class TestTransforms:
    def test_concatenated_merges_boundary(self):
        joined = Cigar.parse("50=").concatenated(Cigar.parse("50="))
        assert str(joined) == "100="

    def test_classify_exact(self):
        assert Cigar.parse("150=").classify_edits() == "exact"

    def test_classify_mismatch_only(self):
        assert Cigar.parse("10=1X5=2X7=").classify_edits() == \
            "mismatch_only"

    def test_classify_single_indel(self):
        assert Cigar.parse("50=3D100=").classify_edits() == "single_indel"
        assert Cigar.parse("70=2I78=").classify_edits() == "single_indel"

    def test_classify_complex(self):
        assert Cigar.parse("50=1X10=1D89=").classify_edits() == "complex"
        assert Cigar.parse("10=1I10=1I10=").classify_edits() == "complex"
        assert Cigar.parse("10=1I10=1D10=").classify_edits() == "complex"
