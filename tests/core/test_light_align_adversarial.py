"""Adversarial tests for Light Alignment: cases built to confuse it."""

import numpy as np
import pytest

from repro.align import DEFAULT_SCHEME, align_banded
from repro.core import LightAligner
from repro.genome import encode, random_sequence


def align_full(read, window):
    """The DP kernel with a band that covers the whole matrix."""
    return align_banded(read, window, diagonal=0,
                        bandwidth=len(read) + len(window))


def window_around(rng, template, pad=8):
    return np.concatenate([random_sequence(rng, pad), template,
                           random_sequence(rng, pad)]), pad


class TestAdversarial:
    def setup_method(self):
        self.rng = np.random.default_rng(314)
        self.aligner = LightAligner()

    def test_edit_at_first_base(self):
        template = random_sequence(self.rng, 150)
        read = template.copy()
        read[0] = (read[0] + 1) % 4
        window, offset = window_around(self.rng, template)
        hit = self.aligner.align(read, window, offset)
        assert hit is not None
        assert hit.score == align_full(read, window).score

    def test_edit_at_last_base(self):
        template = random_sequence(self.rng, 150)
        read = template.copy()
        read[-1] = (read[-1] + 1) % 4
        window, offset = window_around(self.rng, template)
        hit = self.aligner.align(read, window, offset)
        assert hit is not None
        assert hit.score == 290

    def test_deletion_at_read_boundary(self):
        template = random_sequence(self.rng, 155)
        # Delete right after the first base.
        read = np.concatenate([template[:1], template[3:]])[:150]
        window, offset = window_around(self.rng, template)
        hit = self.aligner.align(read, window, offset)
        dp = align_full(read, window)
        if hit is not None:
            assert hit.score == dp.score

    def test_homopolymer_indel_ambiguity(self):
        """Indel inside a homopolymer: many equivalent placements, one
        score.  Light alignment must agree with DP on the score."""
        template = np.concatenate([
            random_sequence(self.rng, 60),
            encode("AAAAAAAAAA"),
            random_sequence(self.rng, 84)])
        read = np.concatenate([template[:65], template[66:]])[:150]
        window, offset = window_around(self.rng, template)
        hit = self.aligner.align(read, window, offset)
        dp = align_full(read, window)
        assert hit is not None
        assert hit.score == dp.score

    def test_tandem_repeat_window(self):
        """A read inside a short tandem repeat: shifted copies of the
        reference genuinely match, creating plausible wrong frames."""
        unit = random_sequence(self.rng, 15)
        template = np.tile(unit, 12)[:150]
        window, offset = window_around(self.rng, template)
        hit = self.aligner.align(template.copy(), window, offset)
        assert hit is not None
        # The exact frame must win (score 300), not a shifted frame.
        assert hit.score == 300

    def test_near_threshold_rejected(self):
        """Score 274 (one mismatch + one insertion) sits just below the
        276 threshold and must fall back."""
        template = random_sequence(self.rng, 150)
        read = np.concatenate([template[:80],
                               random_sequence(self.rng, 1),
                               template[80:]])[:150].copy()
        read[20] = (read[20] + 1) % 4
        window, offset = window_around(self.rng, template)
        hit = self.aligner.align(read, window, offset)
        if hit is not None:
            # If a simple profile explains it, it must score >= 276 and
            # match DP (possible when edits interact degenerately).
            assert hit.score >= 276
            assert hit.score == align_full(read, window).score

    def test_all_same_base_read(self):
        """Degenerate poly-A read against a poly-A window: exact."""
        read = np.zeros(150, dtype=np.uint8)
        window = np.zeros(166, dtype=np.uint8)
        hit = self.aligner.align(read, window, 8)
        assert hit is not None
        assert hit.score == 300

    def test_window_exactly_read_sized(self):
        template = random_sequence(self.rng, 150)
        hit = self.aligner.align(template, template, 0)
        assert hit is not None
        assert hit.score == 300

    def test_cigar_lengths_always_consistent(self):
        for trial in range(30):
            template = random_sequence(self.rng, 158)
            kind = trial % 4
            read = template[:150].copy()
            if kind == 1:
                cut = int(self.rng.integers(5, 145))
                run = int(self.rng.integers(1, 6))
                read = np.concatenate([template[:cut],
                                       template[cut + run:]])[:150]
            elif kind == 2:
                cut = int(self.rng.integers(5, 145))
                run = int(self.rng.integers(1, 3))
                read = np.concatenate([template[:cut],
                                       random_sequence(self.rng, run),
                                       template[cut:]])[:150]
            elif kind == 3:
                for _ in range(int(self.rng.integers(1, 3))):
                    pos = int(self.rng.integers(0, 150))
                    read[pos] = (read[pos] + 1) % 4
            window, offset = window_around(self.rng, template)
            hit = self.aligner.align(read, window, offset)
            if hit is not None:
                assert hit.cigar.read_length == len(read)
                ref_span = hit.cigar.reference_length
                assert hit.ref_start + ref_span <= len(window)
