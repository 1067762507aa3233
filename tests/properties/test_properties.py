"""Property-based tests (hypothesis) on the core data structures.

These pin down the invariants the rest of the system depends on:
encode/decode and pack/unpack are inverse; reverse complement is an
involution; vectorized xxHash equals scalar xxHash; CIGARs round-trip and
account lengths; DP scores equal re-scored CIGARs; Light Alignment never
disagrees with full DP when it answers.
"""

import numpy as np
import pytest
from oracles.core import xxhash32
from hypothesis import example, given, settings, strategies as st

from repro.align import DEFAULT_SCHEME, align_banded
from repro.core import LightAligner, filter_adjacent
from repro.genome import (Cigar, decode, encode, pack_2bit,
                          reverse_complement, unpack_2bit)
from repro.genome.cigar import CigarError
from repro.hashing import xxhash32_rows

dna = st.text(alphabet="ACGT", min_size=0, max_size=200)
dna_nonempty = st.text(alphabet="ACGT", min_size=1, max_size=200)


def align_full(read, window):
    """The DP kernel with a band that covers the whole matrix."""
    return align_banded(read, window, diagonal=0,
                        bandwidth=len(read) + len(window))


class TestSequenceProperties:
    @given(dna)
    def test_encode_decode_roundtrip(self, seq):
        assert decode(encode(seq)) == seq

    @given(dna)
    def test_revcomp_involution(self, seq):
        codes = encode(seq)
        assert np.array_equal(
            reverse_complement(reverse_complement(codes)), codes)

    @given(dna)
    def test_pack_unpack_roundtrip(self, seq):
        codes = encode(seq)
        assert np.array_equal(unpack_2bit(pack_2bit(codes), len(codes)),
                              codes)

    @given(dna_nonempty)
    def test_revcomp_reverses_gc_content(self, seq):
        codes = encode(seq)
        rc = reverse_complement(codes)
        # G+C count is preserved under complement.
        gc = np.isin(codes, (1, 2)).sum()
        assert np.isin(rc, (1, 2)).sum() == gc


class TestHashProperties:
    @given(st.binary(min_size=0, max_size=64),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_vectorized_matches_scalar(self, data, seed):
        rows = np.frombuffer(data, dtype=np.uint8).reshape(1, -1)
        assert int(xxhash32_rows(rows, seed=seed)[0]) == \
            xxhash32(data, seed=seed)

    @given(st.binary(min_size=1, max_size=64))
    def test_digest_in_range(self, data):
        assert 0 <= xxhash32(data) <= 0xFFFFFFFF


cigar_ops = st.lists(
    st.tuples(st.integers(min_value=1, max_value=50),
              st.sampled_from("=XIDS")),
    min_size=0, max_size=10)


class TestCigarProperties:
    @given(cigar_ops)
    def test_parse_render_roundtrip(self, ops):
        cigar = Cigar.from_pairs(ops)
        assert Cigar.parse(str(cigar)).ops == cigar.ops

    @given(cigar_ops)
    def test_length_accounting(self, ops):
        cigar = Cigar.from_pairs(ops)
        read_len = sum(l for l, op in ops if op in "=XIS")
        ref_len = sum(l for l, op in ops if op in "=XD")
        assert cigar.read_length == read_len
        assert cigar.reference_length == ref_len

    @given(cigar_ops)
    def test_from_ops_run_length_encodes_columns(self, ops):
        columns = "".join(op * length for length, op in ops).encode("ascii")
        cigar = Cigar.from_pairs(ops)
        assert Cigar.from_ops(columns).ops == cigar.ops
        assert Cigar.from_ops(
            np.frombuffer(columns, dtype=np.uint8)).ops == cigar.ops


#: One op letter per alignment column, long runs and short ones.
op_columns = st.one_of(
    st.text(alphabet="=XIDMS", max_size=300),
    st.lists(st.tuples(st.sampled_from("=XIDMS"), st.integers(1, 40)),
             max_size=8).map(lambda runs: "".join(op * length
                                                  for op, length in runs)))


def _as(form, letters):
    data = letters.encode("latin-1")
    return np.frombuffer(data, dtype=np.uint8) if form == "uint8" else data


class TestFromOps:
    """``Cigar.from_ops`` run-length encodes op letters as bytes or as a
    uint8 array, and refuses a letter that is no CIGAR op."""

    @given(op_columns, st.sampled_from(["bytes", "uint8"]))
    @example("", "bytes")
    @example("", "uint8")
    def test_equals_one_pair_per_column(self, letters, form):
        cigar = Cigar.from_ops(_as(form, letters))
        assert cigar == Cigar.from_pairs((1, op) for op in letters)
        assert cigar == Cigar.parse(str(cigar))
        assert "".join(op * length for length, op in cigar.ops) == letters
        assert all(a[1] != b[1] for a, b in zip(cigar.ops, cigar.ops[1:]))

    @given(op_columns, st.characters(min_codepoint=0, max_codepoint=255)
           .filter(lambda letter: letter not in "=XIDMS"),
           st.integers(0, 300), st.sampled_from(["bytes", "uint8"]))
    @example("==X", "\n", 1, "bytes")  # no regex wildcard may skip it
    @example("", "\xff", 0, "uint8")  # not ASCII
    def test_an_invalid_letter_raises(self, letters, bad, at, form):
        at %= len(letters) + 1
        with pytest.raises(CigarError):
            Cigar.from_ops(_as(form, letters[:at] + bad + letters[at:]))


def _rescore(cigar):
    score = 0
    for length, op in cigar.ops:
        if op == "=":
            score += DEFAULT_SCHEME.match * length
        elif op == "X":
            score -= DEFAULT_SCHEME.mismatch * length
        elif op in ("I", "D"):
            score -= (DEFAULT_SCHEME.gap_open
                      + DEFAULT_SCHEME.gap_extend * length)
    return score


class TestAlignmentProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_dp_score_equals_cigar_score(self, seed):
        rng = np.random.default_rng(seed)
        template = rng.integers(0, 4, size=70, dtype=np.uint8)
        read = template.copy()
        for _ in range(int(rng.integers(0, 4))):
            pos = int(rng.integers(0, len(read)))
            read[pos] = (read[pos] + 1) % 4
        window = np.concatenate([
            rng.integers(0, 4, size=10, dtype=np.uint8), template,
            rng.integers(0, 4, size=10, dtype=np.uint8)])
        result = align_full(read, window)
        assert result.score == _rescore(result.cigar)
        assert result.cigar.read_length == len(read)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_light_alignment_never_beats_dp(self, seed):
        rng = np.random.default_rng(seed)
        template = rng.integers(0, 4, size=80, dtype=np.uint8)
        # Apply a random simple or complex perturbation.
        read = template.copy()
        n_edits = int(rng.integers(0, 4))
        for _ in range(n_edits):
            pos = int(rng.integers(0, len(read)))
            read[pos] = (read[pos] + 1) % 4
        window = np.concatenate([
            rng.integers(0, 4, size=8, dtype=np.uint8), template,
            rng.integers(0, 4, size=8, dtype=np.uint8)])
        hit = LightAligner().align(read, window, 8)
        dp = align_full(read, window)
        if hit is not None:
            assert hit.score == dp.score
            assert _rescore(hit.cigar) == hit.score
            assert hit.cigar.read_length == len(read)


class TestFilterProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    max_size=30),
           st.lists(st.integers(min_value=0, max_value=10**6),
                    max_size=30),
           st.integers(min_value=1, max_value=1000))
    def test_filter_output_within_delta(self, list1, list2, delta):
        c1 = np.array(sorted(set(list1)), dtype=np.int64)
        c2 = np.array(sorted(set(list2)), dtype=np.int64)
        result = filter_adjacent(c1, c2, delta=delta)
        for pos1, pos2 in result.pairs:
            assert -30 <= pos2 - pos1 <= delta
            assert pos1 in c1
            assert pos2 in c2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**5),
                    min_size=1, max_size=20))
    def test_filter_finds_self_pairs(self, values):
        """Identical candidate lists always pass (distance 0 <= delta)."""
        candidates = np.array(sorted(set(values)), dtype=np.int64)
        result = filter_adjacent(candidates, candidates, delta=100)
        assert result.passed

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    max_size=30),
           st.lists(st.integers(min_value=0, max_value=10**6),
                    max_size=30),
           st.lists(st.integers(min_value=1, max_value=10**6),
                    min_size=1, max_size=5),
           st.integers(min_value=1, max_value=1000))
    def test_no_joint_candidate_spans_chromosomes(self, list1, list2,
                                                  starts, delta):
        """With chromosome boundaries supplied, every emitted joint
        candidate resolves both positions to the same chromosome."""
        c1 = np.array(sorted(set(list1)), dtype=np.int64)
        c2 = np.array(sorted(set(list2)), dtype=np.int64)
        boundaries = np.array(sorted({0, *starts}), dtype=np.int64)
        result = filter_adjacent(c1, c2, delta=delta,
                                 boundaries=boundaries)
        for pos1, pos2 in result.pairs:
            chrom1 = np.searchsorted(boundaries, pos1, side="right")
            chrom2 = np.searchsorted(boundaries, pos2, side="right")
            assert chrom1 == chrom2
            assert -30 <= pos2 - pos1 <= delta
