"""Tests for anchor chaining DP."""

import pytest

from repro.align import Anchor, chain_anchors


def colinear_anchors(start_ref=1000, start_read=0, count=8, spacing=20,
                     length=15):
    return [Anchor(ref_pos=start_ref + i * spacing,
                   read_pos=start_read + i * spacing, length=length)
            for i in range(count)]


class TestChaining:
    def test_empty(self):
        result = chain_anchors([])
        assert result.chains == ()
        assert result.cells == 0

    def test_colinear_anchors_chain_together(self):
        result = chain_anchors(colinear_anchors())
        assert len(result.chains) >= 1
        best = result.best
        assert len(best.anchors) == 8
        assert best.score > 8 * 15 * 0.8

    def test_chain_properties(self):
        best = chain_anchors(colinear_anchors()).best
        assert best.ref_start == 1000
        assert best.ref_end == 1000 + 7 * 20 + 15
        assert best.read_start == 0
        assert best.diagonal == 1000

    def test_two_loci_two_chains(self):
        anchors = colinear_anchors(1000) + colinear_anchors(50_000)
        result = chain_anchors(anchors)
        assert len(result.chains) == 2
        diagonals = sorted(chain.diagonal for chain in result.chains)
        assert diagonals == [1000, 50_000]

    def test_noise_anchor_excluded(self):
        anchors = colinear_anchors() + [Anchor(90_000, 75, 15)]
        best = chain_anchors(anchors).best
        assert all(a.ref_pos < 10_000 for a in best.anchors)

    def test_gap_penalty_prefers_consistent_diagonal(self):
        # Same read positions mapping to two ref runs: one colinear, one
        # with a big diagonal jump in the middle.
        good = colinear_anchors(1000)
        jumpy = (colinear_anchors(2000, count=4)
                 + colinear_anchors(2400, start_read=80, count=4))
        result = chain_anchors(good + jumpy)
        assert result.best.ref_start == 1000

    def test_max_gap_splits_chains(self):
        anchors = (colinear_anchors(1000, count=4)
                   + colinear_anchors(1000 + 4 * 20 + 900,
                                      start_read=4 * 20 + 900, count=4))
        result = chain_anchors(anchors, max_gap=500)
        assert len(result.chains) == 2

    def test_min_score_filters(self):
        weak = [Anchor(100, 0, 5)]
        assert chain_anchors(weak, min_score=20.0).chains == ()
        assert len(chain_anchors(weak, min_score=1.0).chains) == 1

    def test_cells_counted(self):
        # Anchor i visits its min(i, lookback) predecessors.
        assert chain_anchors(colinear_anchors(count=10)).cells == 45
        assert chain_anchors(colinear_anchors(count=10),
                             max_lookback=3).cells == 0 + 1 + 2 + 7 * 3

    def test_best_raises_when_empty(self):
        with pytest.raises(ValueError):
            chain_anchors([]).best

    def test_max_chains_cap(self):
        anchors = []
        for locus in range(6):
            anchors += colinear_anchors(10_000 * (locus + 1), count=4)
        result = chain_anchors(anchors, max_chains=3)
        assert len(result.chains) == 3
