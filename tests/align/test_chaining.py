"""Tests for anchor chaining DP."""

import numpy as np

from repro.align import AnchorColumns, chain_anchors


def colinear_anchors(start_ref=1000, start_read=0, count=8, spacing=20,
                     length=15):
    return [(start_ref + i * spacing, start_read + i * spacing, length)
            for i in range(count)]


def chain(anchors, **options):
    """Chain one problem of ``(ref_pos, read_pos, length)`` anchors."""
    table = np.array(anchors, dtype=np.int64).reshape(-1, 3)
    return chain_anchors(AnchorColumns(table[:, 0], table[:, 1],
                                       table[:, 2],
                                       np.zeros(len(table), dtype=np.int64),
                                       1), **options)


class TestChaining:
    def test_empty(self):
        result = chain([])
        assert result.score.size == 0
        assert result.cells == 0

    def test_colinear_anchors_chain_together(self):
        result = chain(colinear_anchors())
        # One chain of all eight: gap-free 15-base anchors cost nothing.
        assert result.rank.tolist() == [0]
        assert result.score.tolist() == [8 * 15]

    def test_chain_properties(self):
        result = chain(colinear_anchors(1000, start_read=40))
        assert result.problem.tolist() == [0]
        assert result.diagonal.tolist() == [1000 - 40]

    def test_two_loci_two_chains(self):
        result = chain(colinear_anchors(1000) + colinear_anchors(50_000))
        assert result.rank.tolist() == [0, 1]
        assert sorted(result.diagonal.tolist()) == [1000, 50_000]

    def test_noise_anchor_excluded(self):
        result = chain(colinear_anchors() + [(90_000, 75, 15)])
        assert result.diagonal.tolist() == [1000]
        assert result.score.tolist() == [8 * 15]

    def test_gap_penalty_prefers_consistent_diagonal(self):
        # Same read positions mapping to two ref runs: one colinear, one
        # with a big diagonal jump in the middle.
        good = colinear_anchors(1000)
        jumpy = (colinear_anchors(2000, count=4)
                 + colinear_anchors(2400, start_read=80, count=4))
        result = chain(good + jumpy)
        assert result.diagonal[result.rank == 0].tolist() == [1000]

    def test_max_gap_splits_chains(self):
        anchors = (colinear_anchors(1000, count=4)
                   + colinear_anchors(1000 + 4 * 20 + 900,
                                      start_read=4 * 20 + 900, count=4))
        assert chain(anchors, max_gap=500).score.size == 2

    def test_min_score_filters(self):
        weak = [(100, 0, 5)]
        assert chain(weak, min_score=20.0).score.size == 0
        assert chain(weak, min_score=1.0).score.size == 1

    def test_cells_counted(self):
        # Anchor i visits its min(i, lookback) predecessors.
        assert chain(colinear_anchors(count=10)).cells == 45
        assert chain(colinear_anchors(count=10),
                     max_lookback=3).cells == 0 + 1 + 2 + 7 * 3

    def test_max_chains_cap(self):
        anchors = []
        for locus in range(6):
            anchors += colinear_anchors(10_000 * (locus + 1), count=4)
        assert chain(anchors, max_chains=3).rank.tolist() == [0, 1, 2]
