"""Tests for the seed-length optimization analysis (§3.2)."""

import pytest

from benchmarks.paper.profiles import SeedLengthCurve, seed_length_curve
from repro.genome import ErrorModel, ReadSimulator


class TestSeedLengthCurve:
    def test_perfect_reads_all_lengths_perfect(self, plain_reference,
                                               clean_pairs):
        curve = seed_length_curve(plain_reference, clean_pairs[:25],
                                  lengths=(30, 50, 75))
        assert all(rate == 1.0 for rate in curve.rates.values())
        assert curve.recommend() == 75  # longest viable wins

    def test_rate_decreases_with_length(self, plain_reference):
        sim = ReadSimulator(plain_reference,
                            error_model=ErrorModel.mason_default(0.01),
                            seed=61)
        pairs = sim.simulate_pairs(40)
        curve = seed_length_curve(plain_reference, pairs,
                                  lengths=(25, 50, 75))
        assert curve.rates[25] >= curve.rates[50] >= curve.rates[75]

    def test_recommend_respects_target(self, plain_reference):
        sim = ReadSimulator(plain_reference,
                            error_model=ErrorModel.mason_default(0.008),
                            seed=62)
        pairs = sim.simulate_pairs(40)
        curve = seed_length_curve(plain_reference, pairs,
                                  lengths=(25, 40, 50, 60, 75))
        choice = curve.recommend(min_rate=0.8)
        assert curve.rates[choice] >= 0.8 or \
            choice == max(curve.rates, key=lambda k: curve.rates[k])

    def test_fallback_when_nothing_viable(self):
        curve = SeedLengthCurve(rates={30: 0.5, 50: 0.4}, pairs=10)
        assert curve.recommend(min_rate=0.9) == 30

    def test_rows_sorted(self):
        curve = SeedLengthCurve(rates={50: 0.9, 30: 0.95, 75: 0.8},
                                pairs=10)
        rows = curve.as_rows()
        assert [length for length, _ in rows] == [30, 50, 75]
        assert rows[0][1] == pytest.approx(95.0)

    def test_paper_choice_in_giab_regime(self, small_reference,
                                         sample_pairs):
        """With GIAB-like noise, 50bp should still clear the ~85%
        Observation-1 bar (the paper's operating point)."""
        curve = seed_length_curve(small_reference, sample_pairs[:60],
                                  lengths=(50,))
        assert curve.rates[50] > 0.8
