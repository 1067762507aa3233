"""Tests for Light Alignment, including optimality versus full DP."""

import numpy as np
import pytest

from repro.align import DEFAULT_SCHEME, align_semiglobal
from repro.core import LightAligner, enumerate_simple_profiles
from repro.genome import random_sequence


def make_window(rng, template, pad=8):
    window = np.concatenate([random_sequence(rng, pad), template,
                             random_sequence(rng, pad)])
    return window, pad


class TestProfileEnumeration:
    def test_reproduces_table1(self):
        profiles = enumerate_simple_profiles(150, max_run=5)
        labels = {(p.describe(), p.score) for p in profiles}
        expected = {
            ("None", 300), ("1 Mismatch", 290), ("1 Deletion", 286),
            ("1 Insertion", 284), ("2 Consecutive Deletions", 284),
            ("3 Consecutive Deletions", 282), ("2 Mismatches", 280),
            ("2 Consecutive Insertions", 280),
            ("4 Consecutive Deletions", 280),
            ("5 Consecutive Deletions", 278),
            ("1 Mismatch & 1 Deletion", 276),
        }
        assert expected <= labels
        # Only one extra boundary row (3 consecutive insertions at 276),
        # which the paper's Table 1 omits.
        assert labels - expected == {("3 Consecutive Insertions", 276)}

    def test_sorted_by_score(self):
        profiles = enumerate_simple_profiles(150)
        scores = [p.score for p in profiles]
        assert scores == sorted(scores, reverse=True)

    def test_threshold_respected(self):
        for profile in enumerate_simple_profiles(150, threshold=280):
            assert profile.score >= 280

    def test_never_mixes_indel_types(self):
        for profile in enumerate_simple_profiles(150, threshold=250):
            assert not (profile.insertion_run and profile.deletion_run)


class TestAcceptanceBarFollowsReadLength:
    """The §3.4 threshold (276) is stated for 150-base reads; a read of
    another length gets the same 24-point edit budget under its own
    perfect score, so the lattice is the same twelve profiles."""

    def test_unchanged_at_150(self):
        assert LightAligner().profiles_for(150) \
            == enumerate_simple_profiles(150, max_run=5)
        assert len(LightAligner().profiles_for(150)) == 12

    @pytest.mark.parametrize("length", [90, 100, 137, 250])
    def test_same_lattice_at_other_lengths(self, length):
        aligner = LightAligner()
        at_150 = aligner.profiles_for(150)
        profiles = aligner.profiles_for(length)
        assert [(p.mismatches, p.insertion_run, p.deletion_run,
                 p.score - 2 * length) for p in profiles] \
            == [(p.mismatches, p.insertion_run, p.deletion_run,
                 p.score - 300) for p in at_150]

    def test_custom_threshold_keeps_its_budget(self):
        # 260 at 150 bp is a 40-point budget: 160 for a 100-base read.
        profiles = LightAligner(threshold=260).profiles_for(100)
        assert min(p.score for p in profiles) >= 160
        assert any(p.mismatches == 4 for p in profiles)
        assert not any(p.mismatches == 5 for p in profiles)

    def test_exact_100_base_read_aligns(self):
        rng = np.random.default_rng(3)
        template = random_sequence(rng, 100)
        window, offset = make_window(rng, template)
        hit = LightAligner().align(template, window, offset)
        assert (hit.score, str(hit.cigar), hit.ref_start) \
            == (200, "100=", offset)


class TestLightAlignerCases:
    def setup_method(self):
        self.aligner = LightAligner()
        self.rng = np.random.default_rng(77)

    def test_exact(self):
        template = random_sequence(self.rng, 150)
        window, offset = make_window(self.rng, template)
        hit = self.aligner.align(template, window, offset)
        assert hit is not None
        assert hit.score == 300
        assert str(hit.cigar) == "150="
        assert hit.ref_start == offset

    def test_one_mismatch(self):
        template = random_sequence(self.rng, 150)
        read = template.copy()
        read[77] = (read[77] + 1) % 4
        window, offset = make_window(self.rng, template)
        hit = self.aligner.align(read, window, offset)
        assert hit.score == 290
        assert str(hit.cigar) == "77=1X72="

    def test_two_scattered_mismatches(self):
        template = random_sequence(self.rng, 150)
        read = template.copy()
        read[10] = (read[10] + 1) % 4
        read[140] = (read[140] + 2) % 4
        window, offset = make_window(self.rng, template)
        hit = self.aligner.align(read, window, offset)
        assert hit.score == 280
        assert hit.cigar.count("X") == 2

    @pytest.mark.parametrize("run", [1, 2, 3, 4, 5])
    def test_consecutive_deletions(self, run):
        template = random_sequence(self.rng, 150 + run)
        read = np.concatenate([template[:60], template[60 + run:]])[:150]
        window, offset = make_window(self.rng, template)
        hit = self.aligner.align(read[:150], window, offset)
        assert hit is not None
        assert hit.profile.deletion_run == run
        assert hit.score == DEFAULT_SCHEME.score_profile(
            len(read[:150]), deletion_run=run)

    @pytest.mark.parametrize("run", [1, 2])
    def test_consecutive_insertions(self, run):
        template = random_sequence(self.rng, 150)
        inserted = np.concatenate([template[:90],
                                   random_sequence(self.rng, run),
                                   template[90:]])[:150]
        window, offset = make_window(self.rng, template)
        hit = self.aligner.align(inserted, window, offset)
        assert hit is not None
        assert hit.profile.insertion_run == run
        assert hit.cigar.count("I") == run

    def test_mismatch_plus_deletion_combo(self):
        template = random_sequence(self.rng, 152)
        read = np.concatenate([template[:40], template[41:]])  # 1 del
        read = read[:150].copy()
        read[100] = (read[100] + 1) % 4  # 1 mismatch after the deletion
        window, offset = make_window(self.rng, template)
        hit = self.aligner.align(read, window, offset)
        assert hit is not None
        assert hit.score == 276

    def test_complex_edits_fall_back(self):
        template = random_sequence(self.rng, 160)
        # Two separate indel runs: outside the simple vocabulary.
        read = np.concatenate([template[:40], template[42:100],
                               template[103:]])[:150]
        window, offset = make_window(self.rng, template)
        assert self.aligner.align(read, window, offset) is None

    def test_too_many_mismatches_fall_back(self):
        template = random_sequence(self.rng, 150)
        read = template.copy()
        for pos in (10, 50, 90, 130):
            read[pos] = (read[pos] + 1) % 4
        window, offset = make_window(self.rng, template)
        assert self.aligner.align(read, window, offset) is None

    def test_window_edge_clamps_shifts(self):
        template = random_sequence(self.rng, 150)
        # No left padding: negative shifts unavailable, exact still works.
        window = np.concatenate([template, random_sequence(self.rng, 8)])
        hit = self.aligner.align(template, window, 0)
        assert hit is not None
        assert hit.score == 300

    def test_empty_read(self):
        assert self.aligner.align(np.zeros(0, dtype=np.uint8),
                                  random_sequence(self.rng, 20), 5) is None

    def test_invalid_max_edits(self):
        with pytest.raises(ValueError):
            LightAligner(max_edits=0)


class TestOptimalityAgainstDP:
    """When Light Alignment answers, it must match full DP exactly."""

    def test_random_simple_edits_match_dp(self):
        rng = np.random.default_rng(123)
        aligner = LightAligner()
        checked = 0
        for trial in range(60):
            template = random_sequence(rng, 158)
            kind = trial % 4
            if kind == 0:
                read = template[:150].copy()
                for _ in range(int(rng.integers(0, 3))):
                    pos = int(rng.integers(0, 150))
                    read[pos] = (read[pos] + 1) % 4
            elif kind == 1:
                run = int(rng.integers(1, 6))
                cut = int(rng.integers(20, 130))
                read = np.concatenate([template[:cut],
                                       template[cut + run:]])[:150]
            elif kind == 2:
                run = int(rng.integers(1, 3))
                cut = int(rng.integers(20, 130))
                read = np.concatenate([template[:cut],
                                       random_sequence(rng, run),
                                       template[cut:]])[:150]
            else:
                read = template[:150].copy()
            window = np.concatenate([random_sequence(rng, 8), template,
                                     random_sequence(rng, 8)])
            hit = aligner.align(read, window, 8)
            if hit is None:
                continue
            dp = align_semiglobal(read, window)
            assert hit.score == dp.score, \
                f"trial {trial}: light {hit.score} vs dp {dp.score}"
            checked += 1
        assert checked > 30
