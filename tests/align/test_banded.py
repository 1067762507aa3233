"""Banded alignment must agree with full DP inside the band."""

import numpy as np
import pytest

from repro.align import align_banded
from repro.genome import random_sequence


def perturb(rng, template, mismatches=0, ins=0, dele=0):
    read = template.copy()
    for _ in range(mismatches):
        pos = int(rng.integers(0, len(read)))
        read[pos] = (read[pos] + 1) % 4
    if ins:
        cut = int(rng.integers(10, len(read) - 10))
        read = np.concatenate([read[:cut], random_sequence(rng, ins),
                               read[cut:]])
    if dele:
        cut = int(rng.integers(10, len(read) - 10 - dele))
        read = np.concatenate([read[:cut], read[cut + dele:]])
    return read


def align_full(read, window):
    """The kernel with a band that covers the whole matrix."""
    return align_banded(read, window, diagonal=0,
                        bandwidth=len(read) + len(window))


class TestBandedMatchesFull:
    @pytest.mark.parametrize("mismatches,ins,dele", [
        (0, 0, 0), (1, 0, 0), (3, 0, 0), (0, 2, 0), (0, 0, 3), (2, 1, 0),
    ])
    def test_agreement(self, mismatches, ins, dele):
        rng = np.random.default_rng(mismatches * 7 + ins * 3 + dele)
        template = random_sequence(rng, 120)
        read = perturb(rng, template, mismatches, ins, dele)
        window = np.concatenate([random_sequence(rng, 20), template,
                                 random_sequence(rng, 20)])
        full = align_full(read, window)
        banded = align_banded(read, window, diagonal=20, bandwidth=12)
        assert banded.score == full.score
        assert str(banded.cigar) == str(full.cigar)

    def test_band_reduces_cells(self):
        rng = np.random.default_rng(42)
        read = random_sequence(rng, 150)
        window = np.concatenate([random_sequence(rng, 25), read,
                                 random_sequence(rng, 25)])
        banded = align_banded(read, window, diagonal=25, bandwidth=10)
        full = align_full(read, window)
        assert banded.cells < full.cells / 3

    def test_wrong_diagonal_misses(self):
        """A band that excludes the true alignment cannot find it."""
        rng = np.random.default_rng(43)
        read = random_sequence(rng, 60)
        window = np.concatenate([random_sequence(rng, 50), read])
        on_target = align_banded(read, window, diagonal=50, bandwidth=8)
        off_target = align_banded(read, window, diagonal=0, bandwidth=8)
        assert on_target.score > off_target.score

    def test_invalid_bandwidth(self):
        rng = np.random.default_rng(44)
        with pytest.raises(ValueError):
            align_banded(random_sequence(rng, 10),
                         random_sequence(rng, 20), bandwidth=0)

    def test_empty_read(self):
        result = align_banded(np.zeros(0, dtype=np.uint8),
                              random_sequence(np.random.default_rng(0),
                                              10))
        assert result.score == 0

    def test_band_leaving_window(self):
        """Band sliding past the window end returns a failed alignment."""
        rng = np.random.default_rng(45)
        read = random_sequence(rng, 100)
        tiny_window = random_sequence(rng, 20)
        result = align_banded(read, tiny_window, diagonal=0, bandwidth=4)
        assert result.score < 0
