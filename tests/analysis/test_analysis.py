"""Tests for the §3 profiling analyses."""

import numpy as np
import pytest

from repro.analysis import (analyze_edit_patterns, classify_simple,
                            profile_breakdown, profile_exact_matches,
                            profile_seed_locations)
from repro.genome import Cigar, ErrorModel, ReadSimulator


class TestExactMatchProfile:
    def test_perfect_reads_all_exact(self, plain_reference, clean_pairs):
        report = profile_exact_matches(plain_reference, clean_pairs)
        assert report.single_end_exact_pct == 100.0
        assert report.paired_end_exact_pct == 100.0
        assert report.seed_per_read_pct == 100.0

    def test_noisy_reads_drop(self, plain_reference):
        sim = ReadSimulator(plain_reference,
                            error_model=ErrorModel.mason_default(0.02),
                            seed=31)
        pairs = sim.simulate_pairs(40)
        report = profile_exact_matches(plain_reference, pairs)
        # 2% error on 150bp: essentially no read is fully exact, but many
        # 50bp seeds survive.
        assert report.single_end_exact_pct < 25.0
        assert report.seed_per_read_pct > \
            report.paired_end_exact_pct

    def test_paired_below_single(self, small_reference, sample_pairs):
        report = profile_exact_matches(small_reference, sample_pairs)
        assert report.paired_end_exact_pct <= \
            report.single_end_exact_pct + 1e-9


class TestSeedLocations:
    def test_plain_genome_near_one(self, plain_seedmap, clean_simulator):
        reads = clean_simulator.simulate_single(30)
        report = profile_seed_locations(plain_seedmap, reads)
        assert report.seeds_queried == 90
        assert report.seeds_hit > 80
        assert 1.0 <= report.mean_locations_per_seed < 1.3

    def test_repeat_genome_higher(self, seedmap, simulator,
                                  plain_seedmap, clean_simulator):
        repeat_reads = simulator.simulate_single(40)
        repeat_report = profile_seed_locations(seedmap, repeat_reads)
        plain_reads = clean_simulator.simulate_single(40)
        plain_report = profile_seed_locations(plain_seedmap, plain_reads)
        assert repeat_report.mean_locations_per_seed > \
            plain_report.mean_locations_per_seed


class TestEditPatterns:
    def test_clean_pairs_all_simple(self, plain_reference, clean_pairs):
        report = analyze_edit_patterns(plain_reference, clean_pairs[:20])
        assert report.simple_fraction_pct == 100.0
        assert report.above_threshold_pct == 100.0
        assert all(r.min_score == 300 for r in report.records)

    def test_cdf_monotone(self, small_reference, sample_pairs):
        report = analyze_edit_patterns(small_reference, sample_pairs[:40])
        cdf = report.score_cdf(range(200, 310, 10))
        values = [v for _, v in cdf]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_classify_simple(self):
        assert classify_simple(Cigar.parse("150="))
        assert classify_simple(Cigar.parse("70=1X79="))
        assert classify_simple(Cigar.parse("70=3D80="))
        assert not classify_simple(Cigar.parse("50=1I50=1D49="))


class TestBreakdown:
    def test_dp_dominates(self, plain_reference, clean_pairs):
        report = profile_breakdown(plain_reference, clean_pairs[:15],
                                   dataset="unit")
        assert report.pairs == 15
        assert set(report.percent_by_stage) == {"seeding", "chaining",
                                                "alignment", "pairing"}
        total = sum(report.percent_by_stage.values())
        assert total == pytest.approx(100.0, abs=0.01)
        assert report.total_seconds > 0
        # Chaining + alignment dominate, mirroring Fig 1 (83-85%).
        assert report.dp_share_pct > 50.0

    def test_rescue_dp_counts_as_alignment(self, plain_reference,
                                           clean_pairs, monkeypatch):
        """Every ``align_banded`` second — chain alignment and mate
        rescue alike — lies inside what Fig 1 adds up as alignment.
        Every 10th base of each read 2 is substituted, so no minimizer
        survives and every mate is rescued."""
        import time
        from types import SimpleNamespace

        import repro.mapper.mm2 as mm2

        spent = []
        real = mm2.align_banded

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                spent.append(time.perf_counter() - started)

        monkeypatch.setattr(mm2, "align_banded", timed)
        pairs = []
        for pair in clean_pairs[:8]:
            read2 = pair.read2.codes.copy()
            read2[::10] = (read2[::10] + 1) % 4
            pairs.append(SimpleNamespace(
                name=pair.name, read1=pair.read1,
                read2=SimpleNamespace(codes=read2)))
        mapper = mm2.Mm2LikeMapper(plain_reference)
        report = profile_breakdown(plain_reference, pairs, dataset="rescue",
                                   mapper=mapper)
        assert mapper.stats.mate_rescues == len(pairs)
        assert set(report.percent_by_stage) == {"seeding", "chaining",
                                                "alignment", "pairing"}
        alignment_s = (report.percent_by_stage["alignment"]
                       * report.total_seconds / 100)
        assert alignment_s >= sum(spent)

    def test_no_pairs_no_shares(self, plain_reference):
        report = profile_breakdown(plain_reference, [], dataset="empty")
        assert report.percent_by_stage == {}
        assert report.total_seconds == 0 and report.dp_share_pct == 0.0
