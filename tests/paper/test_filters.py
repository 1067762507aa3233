"""Tests for the pre-alignment filter baselines."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from benchmarks.paper.filters import (FilteredLightAligner, exact_match_at,
                                      gatekeeper_filter, shd_filter)
from benchmarks.paper.profiles import profile_exact_matches
from repro.core import LightAligner
from repro.genome import random_sequence


def make_window(rng, template, pad=8):
    return np.concatenate([random_sequence(rng, pad), template,
                           random_sequence(rng, pad)]), pad


@st.composite
def light_alignable_candidates(draw):
    """A 150bp read with <= max_edits substitutions and at most one
    indel run, against a window placing it at a random offset."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length, max_edits = 150, 5
    template = random_sequence(rng, length + max_edits)
    run = draw(st.integers(0, max_edits))
    cut = draw(st.integers(1, length - 1))
    if run and draw(st.booleans()):  # deletion run
        read = np.concatenate([template[:cut], template[cut + run:]])
    else:                            # insertion run (or none)
        read = np.concatenate([template[:cut], random_sequence(rng, run),
                               template[cut:]])
    read = read[:length].copy()
    substitutions = draw(st.lists(st.integers(0, length - 1), unique=True,
                                  max_size=max_edits))
    for pos in substitutions:
        read[pos] = (read[pos] + draw(st.integers(1, 3))) % 4
    window, offset = make_window(rng, template,
                                 pad=draw(st.integers(0, 12)))
    return read, window, offset, len(substitutions), run


class TestNoFalseNegatives:
    """§8: a screen may only skip candidates Light Alignment would have
    failed on anyway (what ``filter_chain="shd"`` asserted end to end
    before the plug was removed)."""

    @settings(max_examples=200, deadline=None)
    @given(light_alignable_candidates())
    def test_light_hit_implies_every_screen_passes(self, candidate):
        read, window, offset, substitutions, run = candidate
        hit = LightAligner().align(read, window, offset)
        if run == 0 and substitutions <= 2:
            assert hit is not None  # Table 1: the property is not vacuous
        if hit is not None:
            assert shd_filter(read, window, offset).passed
            assert gatekeeper_filter(read, window, offset).passed
        assert FilteredLightAligner().align(read, window, offset) == hit


class TestShd:
    def setup_method(self):
        self.rng = np.random.default_rng(5)

    def test_exact_passes(self):
        template = random_sequence(self.rng, 100)
        window, offset = make_window(self.rng, template)
        result = shd_filter(template, window, offset)
        assert result.passed
        assert result.estimated_edits == 0
        assert result.masks_computed == 11  # 2e+1 with e=5

    def test_few_edits_pass(self):
        template = random_sequence(self.rng, 100)
        read = template.copy()
        read[50] = (read[50] + 1) % 4
        window, offset = make_window(self.rng, template)
        assert shd_filter(read, window, offset).passed

    def test_deletion_passes(self):
        template = random_sequence(self.rng, 104)
        read = np.concatenate([template[:40], template[43:]])[:100]
        window, offset = make_window(self.rng, template)
        assert shd_filter(read, window, offset).passed

    def test_garbage_rejected(self):
        read = random_sequence(self.rng, 100)
        window = random_sequence(self.rng, 120)
        assert not shd_filter(read, window, 8).passed

    def test_empty_read_rejected(self):
        assert not shd_filter(np.zeros(0, dtype=np.uint8),
                              random_sequence(self.rng, 20), 5).passed


class TestGateKeeper:
    def test_exact_passes(self):
        rng = np.random.default_rng(7)
        template = random_sequence(rng, 100)
        window, offset = make_window(rng, template)
        assert gatekeeper_filter(template, window, offset).passed

    def test_weaker_than_shd(self):
        """GateKeeper (no amendment) lets through at least as much."""
        rng = np.random.default_rng(8)
        gk_pass = shd_pass = 0
        for _ in range(60):
            read = random_sequence(rng, 100)
            window = random_sequence(rng, 120)
            if gatekeeper_filter(read, window, 8).passed:
                gk_pass += 1
            if shd_filter(read, window, 8).passed:
                shd_pass += 1
        assert gk_pass >= shd_pass


class TestExactFilter:
    def test_match_found_with_slack(self, plain_reference):
        codes = plain_reference.fetch("chr1", 7000, 7150)
        assert exact_match_at(plain_reference, codes, "chr1", 7004) == 7000

    def test_mismatch_fails(self, plain_reference):
        codes = plain_reference.fetch("chr1", 7000, 7150).copy()
        codes[75] = (codes[75] + 1) % 4
        assert exact_match_at(plain_reference, codes, "chr1", 7000) is None

    def test_slack_bounds_the_search(self, plain_reference):
        codes = plain_reference.fetch("chr1", 7000, 7150)
        assert exact_match_at(plain_reference, codes, "chr1", 7008) == 7000
        assert exact_match_at(plain_reference, codes, "chr1", 7009) is None
        assert exact_match_at(plain_reference, codes, "chr1", 7009,
                              slack=9) == 7000

    def test_pair_requires_both(self, plain_reference, clean_pairs):
        pair = clean_pairs[0]
        report = profile_exact_matches(plain_reference, [pair])
        assert (report.reads_exact, report.pairs_exact) == (2, 1)
        broken = pair.read2.codes.copy()
        broken[10] = (broken[10] + 1) % 4
        pair = dataclasses.replace(
            pair, read2=dataclasses.replace(pair.read2, codes=broken))
        report = profile_exact_matches(plain_reference, [pair])
        assert (report.reads_exact, report.pairs_exact) == (1, 0)


class TestFilteredLightAligner:
    def test_same_answers_as_unfiltered(self):
        rng = np.random.default_rng(10)
        combo = FilteredLightAligner()
        plain = LightAligner()
        aligned = 0
        for trial in range(30):
            # 150 bp: a shorter read cannot reach the 276-point
            # high-quality threshold, and both sides would say None.
            template = random_sequence(rng, 158)
            read = template[:150].copy()
            if trial % 2:
                pos = int(rng.integers(0, 150))
                read[pos] = (read[pos] + 1) % 4
            window, offset = make_window(rng, template)
            filtered = combo.align(read, window, offset)
            unfiltered = plain.align(read, window, offset)
            if unfiltered is None:
                assert filtered is None
            else:
                aligned += 1
                assert filtered is not None
                assert filtered.score == unfiltered.score
        assert aligned == 30

    def test_filter_saves_attempts_on_garbage(self):
        rng = np.random.default_rng(11)
        combo = FilteredLightAligner()
        for _ in range(20):
            read = random_sequence(rng, 100)
            window = random_sequence(rng, 120)
            combo.align(read, window, 8)
        assert combo.stats.rejection_rate > 0.9
        assert combo.stats.light_attempts < 3
