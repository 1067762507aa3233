"""Tests for insert-size estimation and Δ calibration."""

import numpy as np
import pytest

from repro.core import (GenPairConfig, GenPairPipeline,
                        InsertSizeEstimate, InsertSizeEstimator,
                        calibrate_delta)
from repro.genome import ErrorModel, PairedEndProfile, ReadSimulator


class TestEstimate:
    def test_suggested_delta_covers_tail(self):
        estimate = InsertSizeEstimate(mean=350.0, sd=35.0, samples=100,
                                      read_length=150)
        delta = estimate.suggested_delta(sigmas=4.0)
        assert delta == int(np.ceil(350 - 150 + 4 * 35))

    def test_minimum_floor(self):
        tight = InsertSizeEstimate(mean=155.0, sd=1.0, samples=100,
                                   read_length=150)
        assert tight.suggested_delta() == 50


class TestEstimator:
    def test_needs_enough_samples(self, plain_reference, plain_seedmap,
                                  clean_pairs):
        pipeline = GenPairPipeline(plain_reference,
                                   seedmap=plain_seedmap)
        estimator = InsertSizeEstimator()
        for pair in clean_pairs[:5]:
            estimator.add_result(pipeline.map_pair(
                pair.read1.codes, pair.read2.codes, pair.name))
        assert estimator.estimate() is None

    def test_estimates_simulated_library(self, plain_reference,
                                         plain_seedmap, clean_pairs):
        pipeline = GenPairPipeline(plain_reference,
                                   seedmap=plain_seedmap)
        estimator = InsertSizeEstimator()
        results = pipeline.map_pairs(clean_pairs)
        used = estimator.add_results(results)
        assert used >= 40
        estimate = estimator.estimate()
        assert estimate is not None
        # Library simulated at mean 350, sd 35.
        assert 320 < estimate.mean < 380
        assert 10 < estimate.sd < 60

    def test_unmapped_results_skipped(self):
        from repro.core.pipeline import STAGE_UNMAPPED
        from repro.genome import AlignmentRecord, MappingResult
        estimator = InsertSizeEstimator()
        result = MappingResult(
            name="u", stage=STAGE_UNMAPPED,
            records=(AlignmentRecord("u/1", mapped=False),
                     AlignmentRecord("u/2", mapped=False)))
        assert not estimator.add_result(result)


class TestCalibrateDelta:
    def test_applies_suggested_delta(self, plain_reference,
                                     plain_seedmap, clean_pairs):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap,
                                   config=GenPairConfig(delta=2000))
        estimate = calibrate_delta(pipeline, clean_pairs, apply=True)
        assert estimate is not None
        assert pipeline.config.delta == estimate.suggested_delta()
        assert 200 < pipeline.config.delta < 600

    def test_calibrated_delta_still_maps(self, plain_reference,
                                         plain_seedmap, clean_pairs,
                                         clean_simulator):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap,
                                   config=GenPairConfig(delta=5000))
        calibrate_delta(pipeline, clean_pairs, apply=True)
        fresh = clean_simulator.simulate_pairs(20)
        results = pipeline.map_pairs(fresh)
        assert sum(1 for r in results if r.mapped) >= 18

    def test_no_apply_leaves_config(self, plain_reference,
                                    plain_seedmap, clean_pairs):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap,
                                   config=GenPairConfig(delta=777))
        calibrate_delta(pipeline, clean_pairs[:30], apply=False)
        assert pipeline.config.delta == 777

    def test_wide_library_wider_delta(self, plain_reference,
                                      plain_seedmap):
        wide_sim = ReadSimulator(
            plain_reference, error_model=ErrorModel.perfect(),
            profile=PairedEndProfile(insert_mean=500.0, insert_sd=80.0),
            seed=51)
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap,
                                   config=GenPairConfig(delta=3000))
        estimate = calibrate_delta(pipeline, wide_sim.simulate_pairs(60))
        assert estimate is not None
        assert estimate.suggested_delta() > 500
