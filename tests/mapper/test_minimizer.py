"""Tests for minimizer extraction."""

from oracles import align as align_oracle
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.genome import random_sequence
from repro.mapper import extract_minimizers, extract_minimizers_rows

N_CODE = 4


class TestMinimizers:
    def test_empty_and_short(self):
        for codes in (np.zeros(0, dtype=np.uint8),
                      random_sequence(np.random.default_rng(0), 10)):
            positions, hashes = extract_minimizers(codes, k=15)
            assert positions.size == 0 and positions.dtype == np.int64
            assert hashes.size == 0 and hashes.dtype == np.uint64

    def test_density(self):
        codes = random_sequence(np.random.default_rng(1), 10_000)
        positions, _hashes = extract_minimizers(codes, k=15, w=10)
        # Expected density ~ 2/(w+1) of k-mer positions.
        kmer_positions = len(codes) - 15 + 1
        density = len(positions) / kmer_positions
        assert 0.1 < density < 0.3

    def test_positions_valid_and_increasing(self):
        codes = random_sequence(np.random.default_rng(2), 2000)
        positions, _hashes = extract_minimizers(codes, k=15, w=10)
        assert np.all(np.diff(positions) > 0)
        assert positions[0] >= 0 and positions[-1] <= len(codes) - 15

    def test_window_guarantee(self):
        """Every w consecutive k-mers must contain a minimizer."""
        codes = random_sequence(np.random.default_rng(3), 1500)
        k, w = 15, 10
        chosen = extract_minimizers(codes, k, w)[0].tolist()
        kmer_count = len(codes) - k + 1
        for window_start in range(0, kmer_count - w + 1):
            assert any(window_start <= p < window_start + w
                       for p in chosen)

    def test_shared_substring_shares_minimizers(self):
        """Two sequences sharing a long substring share its minimizers."""
        rng = np.random.default_rng(4)
        shared = random_sequence(rng, 300)
        seq_a = np.concatenate([random_sequence(rng, 100), shared])
        seq_b = np.concatenate([random_sequence(rng, 57), shared])
        hashes_a = set(extract_minimizers(seq_a)[1].tolist())
        hashes_b = set(extract_minimizers(seq_b)[1].tolist())
        overlap = len(hashes_a & hashes_b)
        assert overlap >= 20

    def test_invalid_params(self):
        codes = random_sequence(np.random.default_rng(5), 100)
        with pytest.raises(ValueError):
            extract_minimizers(codes, k=0)
        with pytest.raises(ValueError):
            extract_minimizers(codes, k=15, w=0)


@st.composite
def code_rows(draw):
    """A few rows over a 2-letter-heavy alphabet (so short k-mers repeat
    and window minima tie), some with ``N``s, some shorter than ``k`` or
    than one full window."""
    k = draw(st.integers(1, 6))
    w = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.one_of(st.integers(0, k + w), st.integers(0, 60)))
        alphabet = draw(st.sampled_from([(0, 1), (0, 1, 2, 3),
                                         (0, 1, N_CODE)]))
        rows.append(np.array(draw(st.lists(st.sampled_from(alphabet),
                                           min_size=length,
                                           max_size=length)),
                             dtype=np.uint8))
    return rows, k, w


class TestAgainstScalarOracle:
    """The numpy sliding-window minimum == the one-k-mer-at-a-time
    monotone-queue loop of ``tests/oracles/align.py``."""

    @settings(deadline=None)
    @given(code_rows())
    def test_rows_match_oracle(self, drawn):
        rows, k, w = drawn
        expected = [(row, position, hash_value)
                    for row, codes in enumerate(rows)
                    for position, hash_value
                    in align_oracle.extract_minimizers(codes, k, w)]
        positions, hashes, row = extract_minimizers_rows(rows, k, w)
        assert list(zip(row.tolist(), positions.tolist(),
                        hashes.tolist())) == expected
        for codes in rows:
            positions, hashes = extract_minimizers(codes, k, w)
            assert list(zip(positions.tolist(), hashes.tolist())) \
                == align_oracle.extract_minimizers(codes, k, w)

    def test_reads_with_an_n_in_a_chunk(self):
        """150 bp reads at the mapper's (15, 10), one with ``N``s, one
        shorter than a window, one shorter than a k-mer."""
        rng = np.random.default_rng(6)
        rows = [random_sequence(rng, 150) for _ in range(6)]
        rows[2] = rows[2].copy()
        rows[2][[3, 70, 71, 149]] = N_CODE
        rows += [random_sequence(rng, 20), random_sequence(rng, 9),
                 np.full(40, N_CODE, dtype=np.uint8)]
        positions, hashes, row = extract_minimizers_rows(rows, 15, 10)
        assert list(zip(row.tolist(), positions.tolist(),
                        hashes.tolist())) == [
            (number, position, hash_value)
            for number, codes in enumerate(rows)
            for position, hash_value
            in align_oracle.extract_minimizers(codes, 15, 10)]
        assert set(row.tolist()) == {0, 1, 2, 3, 4, 5, 6}
