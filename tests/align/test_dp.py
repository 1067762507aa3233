"""Tests for the Gotoh DP kernel, with a band over the whole matrix."""

import numpy as np

from repro.align import DEFAULT_SCHEME, align_banded
from repro.genome import encode, random_sequence


def align_full(read, window):
    """The kernel with a band that covers the whole matrix."""
    return align_banded(read, window, diagonal=0,
                        bandwidth=len(read) + len(window))


def embed(rng, read, pad_left=20, pad_right=20):
    """Embed a read inside random flanks; returns (window, offset)."""
    left = random_sequence(rng, pad_left)
    right = random_sequence(rng, pad_right)
    return np.concatenate([left, read, right]), pad_left


class TestSemiglobal:
    def test_exact_match(self):
        rng = np.random.default_rng(0)
        read = random_sequence(rng, 80)
        window, offset = embed(rng, read)
        result = align_full(read, window)
        assert result.score == DEFAULT_SCHEME.perfect_score(80)
        assert result.ref_start == offset
        assert str(result.cigar) == "80="
        assert result.cells == 80 * len(window)

    def test_single_mismatch(self):
        rng = np.random.default_rng(1)
        template = random_sequence(rng, 100)
        read = template.copy()
        read[40] = (read[40] + 1) % 4
        window, _ = embed(rng, template)
        result = align_full(read, window)
        assert result.score == DEFAULT_SCHEME.score_profile(100, 1)
        assert result.cigar.count("X") == 1

    def test_insertion_run(self):
        rng = np.random.default_rng(2)
        template = random_sequence(rng, 100)
        read = np.concatenate([template[:50],
                               random_sequence(rng, 2), template[50:]])
        window, _ = embed(rng, template)
        result = align_full(read, window)
        assert result.score == DEFAULT_SCHEME.score_profile(
            102, insertion_run=2)
        assert result.cigar.count("I") == 2

    def test_deletion_run(self):
        rng = np.random.default_rng(3)
        template = random_sequence(rng, 100)
        read = np.concatenate([template[:50], template[53:]])
        window, _ = embed(rng, template)
        result = align_full(read, window)
        assert result.score == DEFAULT_SCHEME.score_profile(
            97, deletion_run=3)
        assert result.cigar.count("D") == 3

    def test_cigar_consumes_full_read(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            template = random_sequence(rng, 60)
            read = template.copy()
            for _ in range(int(rng.integers(0, 5))):
                pos = int(rng.integers(0, len(read)))
                read[pos] = (read[pos] + 1) % 4
            window, _ = embed(rng, template)
            result = align_full(read, window)
            assert result.cigar.read_length == len(read)
            assert result.ref_end - result.ref_start == \
                result.cigar.reference_length

    def test_empty_read(self):
        result = align_full(np.zeros(0, dtype=np.uint8), encode("ACGT"))
        assert result.score == 0
        assert result.cigar.ops == ()

    def test_free_reference_flanks(self):
        """Score must not depend on how much flank surrounds the read."""
        rng = np.random.default_rng(5)
        read = random_sequence(rng, 50)
        short, _ = embed(rng, read, 5, 5)
        long, _ = embed(rng, read, 60, 60)
        assert align_full(read, short).score == \
            align_full(read, long).score


class TestScoreMatchesCigar:
    """The returned score must equal re-scoring the returned CIGAR."""

    def rescore(self, cigar):
        scheme = DEFAULT_SCHEME
        score = 0
        for length, op in cigar.ops:
            if op == "=":
                score += scheme.match * length
            elif op == "X":
                score -= scheme.mismatch * length
            elif op in ("I", "D"):
                score -= scheme.gap_open + scheme.gap_extend * length
        return score

    def test_semiglobal_consistency(self):
        rng = np.random.default_rng(8)
        for trial in range(15):
            template = random_sequence(rng, 90)
            read = template.copy()
            # random small perturbations
            kind = trial % 3
            if kind == 0:
                pos = int(rng.integers(0, 89))
                read[pos] = (read[pos] + 1) % 4
            elif kind == 1:
                cut = int(rng.integers(20, 70))
                read = np.concatenate([read[:cut], read[cut + 2:]])
            else:
                cut = int(rng.integers(20, 70))
                read = np.concatenate([read[:cut],
                                       random_sequence(rng, 1),
                                       read[cut:]])
            window, _ = embed(rng, template)
            result = align_full(read, window)
            assert result.score == self.rescore(result.cigar)
