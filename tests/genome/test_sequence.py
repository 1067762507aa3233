"""Unit tests for repro.genome.sequence."""

import numpy as np
import pytest

from repro.genome.sequence import (ALPHABET_SIZE, N_CODE, SequenceError,
                                   complement, decode, encode,
                                   encode_many,
                                   kmers, pack_2bit, random_sequence,
                                   reverse_complement,
                                   reverse_complements, unpack_2bit)


class TestEncodeDecode:
    def test_round_trip(self):
        assert decode(encode("ACGT")) == "ACGT"

    def test_lowercase_accepted(self):
        assert decode(encode("acgt")) == "ACGT"

    def test_codes_are_canonical(self):
        assert encode("ACGT").tolist() == [0, 1, 2, 3]

    def test_empty(self):
        assert encode("").size == 0
        assert decode(np.zeros(0, dtype=np.uint8)) == ""

    def test_invalid_character_rejected(self):
        with pytest.raises(SequenceError):
            encode("ACGU")

    @pytest.mark.parametrize("text, bad", [
        ("ACGé", "é"), ("AXé", "X"), ("NAé", "é"),
        ("A\U0001F600C", "\U0001F600"), (b"ACG\xe9", "é"),
        ("ACGT?", "?")],
        ids=["latin", "ascii-first", "after-n", "astral", "bytes",
             "question"])
    def test_invalid_character_named(self, text, bad):
        """The first character outside ACGTN is named, a non-ASCII one
        included (never a codec error)."""
        for allow_n in (False, True):
            with pytest.raises(SequenceError) as excinfo:
                encode(text, allow_n=allow_n)
            assert str(excinfo.value) == f"invalid DNA character: {bad!r}"

    def test_text_codes_are_fresh_and_writable(self):
        text = "ACGT"
        first, second = encode(text), encode(text)
        first[0] = 3
        assert first.flags.writeable and first.dtype == np.uint8
        assert second.tolist() == [0, 1, 2, 3]

    def test_n_rejected_by_default(self):
        with pytest.raises(SequenceError):
            encode("ACGN")

    def test_n_allowed_when_requested(self):
        assert encode("ACGN", allow_n=True).tolist() == [0, 1, 2, N_CODE]

    def test_existing_array_passthrough(self):
        arr = np.array([0, 1, 2], dtype=np.uint8)
        assert encode(arr) is not None
        assert encode(arr).tolist() == [0, 1, 2]

    def test_array_with_bad_code_rejected(self):
        with pytest.raises(SequenceError):
            encode(np.array([0, 9], dtype=np.uint8))

    def test_decode_round_trips_every_base(self):
        rng = np.random.default_rng(3)
        for text in ["", "ACNGT", *(decode(random_sequence(rng, n))
                                    for n in (1, 150, 7))]:
            assert decode(encode(text, allow_n=True)) == text
        assert decode(np.arange(5, dtype=np.uint8)) == "ACGTN"

    def test_decode_rejects_bad_codes(self):
        for code in (5, 7, 63, 255):
            with pytest.raises(SequenceError):
                decode(np.array([0, code], dtype=np.uint8))


class TestEncodeMany:
    @pytest.mark.parametrize("seqs", [
        [], ["ACGT", "TTGA", "nnac"], ["A", "", "CGTAN", "g"], [""],
        [b"ACG", b"T"]],
        ids=["none", "equal-lengths", "mixed-lengths", "one-empty",
             "bytes"])
    def test_each_sequence_as_encode_gives_it(self, seqs):
        got = encode_many(seqs, allow_n=True)
        assert [codes.tolist() for codes in got] \
            == [encode(seq, allow_n=True).tolist() for seq in seqs]

    def test_bad_character_and_n_raise_as_encode(self):
        with pytest.raises(SequenceError, match="'X'"):
            encode_many(["ACGT", "AXG"], allow_n=True)
        with pytest.raises(SequenceError, match="outside the alphabet"):
            encode_many(["ACGT", "ANG"])


class TestComplement:
    def test_complement_pairs(self):
        assert decode(complement(encode("ACGT"))) == "TGCA"

    def test_reverse_complement(self):
        assert decode(reverse_complement(encode("AACGTT"))) == "AACGTT"
        assert decode(reverse_complement(encode("AAAC"))) == "GTTT"

    def test_revcomp_is_involution(self):
        rng = np.random.default_rng(0)
        seq = random_sequence(rng, 333)
        assert np.array_equal(reverse_complement(reverse_complement(seq)),
                              seq)

    def test_n_preserved(self):
        codes = encode("ANT", allow_n=True)
        assert decode(reverse_complement(codes)) == "ANT"

    def test_reverse_complements_one_call(self):
        """Each sequence's own reverse complement, empty ones and ``N``
        included, from one call over them all."""
        texts = ["AACGT", "", "GNNTA", "C", "", "TTTTGCA"]
        got = reverse_complements([encode(text, allow_n=True)
                                   for text in texts])
        assert [decode(codes) for codes in got] == [
            decode(reverse_complement(encode(text, allow_n=True)))
            for text in texts]
        assert reverse_complements([]) == []


class TestPacking:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for length in (0, 1, 3, 4, 5, 50, 150):
            seq = random_sequence(rng, length)
            assert np.array_equal(unpack_2bit(pack_2bit(seq), length), seq)

    def test_packed_density(self):
        seq = random_sequence(np.random.default_rng(2), 150)
        assert len(pack_2bit(seq)) == 38  # ceil(150/4)

    def test_pack_rejects_n(self):
        with pytest.raises(SequenceError):
            pack_2bit(encode("AN", allow_n=True))

    def test_unpack_short_buffer_rejected(self):
        with pytest.raises(SequenceError):
            unpack_2bit(b"\x00", 5)


class TestKmers:
    def test_kmer_windows(self):
        codes = encode("ACGTA")
        windows = list(kmers(codes, 3))
        assert len(windows) == 3
        assert decode(windows[0]) == "ACG"
        assert decode(windows[-1]) == "GTA"

    def test_kmer_invalid_k(self):
        with pytest.raises(SequenceError):
            list(kmers(encode("ACGT"), 0))


class TestRandomSequence:
    def test_length_and_alphabet(self):
        seq = random_sequence(np.random.default_rng(3), 1000)
        assert len(seq) == 1000
        assert seq.max() < ALPHABET_SIZE

    def test_negative_length_rejected(self):
        with pytest.raises(SequenceError):
            random_sequence(np.random.default_rng(4), -1)
