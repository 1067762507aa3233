"""Integration tests: full pipelines across module boundaries."""

import numpy as np
import pytest

from benchmarks.paper.hw import GenPairXDesign, WorkloadProfile
from repro.core import GenPairPipeline, STAGE_FULL_DP, STAGE_UNMAPPED
from repro.genome import (ErrorModel, ReadSimulator, generate_reference,
                          plant_variants, write_sam)
from repro.mapper import Mm2LikeMapper
from repro.variants import (Pileup, call_variants, compare_calls,
                            evaluate_mappings, split_by_kind)


@pytest.fixture(scope="module")
def world():
    """A self-contained small world: reference, donor, reads."""
    rng = np.random.default_rng(2024)
    reference = generate_reference(rng, (50_000,))
    donor = plant_variants(rng, reference)
    simulator = ReadSimulator(reference, donor=donor,
                              error_model=ErrorModel.giab_like(), seed=9)
    pairs = simulator.simulate_pairs(250)
    return reference, donor, pairs


class TestHybridPipeline:
    def test_genpair_plus_mm2_maps_nearly_everything(self, world):
        reference, _donor, pairs = world
        mapper = Mm2LikeMapper(reference)
        pipeline = GenPairPipeline(reference, fallback=mapper)
        results = pipeline.map_pairs(pairs)
        unmapped = sum(1 for r in results if r.stage == STAGE_UNMAPPED)
        assert unmapped <= len(pairs) * 0.05

    def test_mapping_locations_correct(self, world):
        reference, _donor, pairs = world
        mapper = Mm2LikeMapper(reference)
        pipeline = GenPairPipeline(reference, fallback=mapper)
        results = pipeline.map_pairs(pairs)
        records = [r.record1 for r in results]
        truths = [p.read1 for p in pairs]
        report = evaluate_mappings(records, truths)
        assert report.precision > 0.97
        assert report.recall > 0.92

    def test_full_dp_fallback_used_by_hybrid(self, world):
        reference, _donor, pairs = world
        mapper = Mm2LikeMapper(reference)
        pipeline = GenPairPipeline(reference, fallback=mapper)
        results = pipeline.map_pairs(pairs)
        # A small residue of pairs should exercise the full-DP arc.
        assert any(r.stage == STAGE_FULL_DP for r in results) or \
            pipeline.stats.seedmap_fallback + \
            pipeline.stats.filter_fallback == 0


class TestVariantCallingEndToEnd:
    def test_calls_recover_truth(self, world):
        reference, donor, _ = world
        # Dedicated higher-coverage read set for calling.
        simulator = ReadSimulator(reference, donor=donor,
                                  error_model=ErrorModel.giab_like(),
                                  seed=77)
        pairs = simulator.simulate_pairs(1600)  # ~19x coverage
        mapper = Mm2LikeMapper(reference)
        pipeline = GenPairPipeline(reference, fallback=mapper)
        results = pipeline.map_pairs(pairs)
        pileup = Pileup(reference)
        for result in results:
            pileup.add_record(result.record1)
            pileup.add_record(result.record2)
        calls = call_variants(pileup)
        truth_snps, truth_indels = split_by_kind(donor.truth)
        call_snps, call_indels = split_by_kind(calls)
        snp_report = compare_calls(call_snps, truth_snps)
        assert snp_report.precision > 0.9
        assert snp_report.recall > 0.7
        assert snp_report.f1 > 0.8
        indel_report = compare_calls(call_indels, truth_indels)
        assert indel_report.precision > 0.7


class TestSamRoundTrip:
    def test_pipeline_records_serialize(self, world, tmp_path):
        reference, _donor, pairs = world
        pipeline = GenPairPipeline(reference)
        results = pipeline.map_pairs(pairs[:30])
        records = []
        for result in results:
            records.extend([result.record1, result.record2])
        path = tmp_path / "out.sam"
        count = write_sam(path, records, reference=reference)
        assert count == 60
        body = [line for line in path.read_text().splitlines()
                if not line.startswith("@")]
        assert len(body) == 60


class TestDesignFromMeasuredWorkload:
    def test_measured_profile_composes(self, world):
        reference, _donor, pairs = world
        mapper = Mm2LikeMapper(reference)
        pipeline = GenPairPipeline(reference, fallback=mapper)
        pipeline.map_pairs(pairs)
        profile = WorkloadProfile.from_pipeline(pipeline.stats,
                                                mapper.stats)
        report = GenPairXDesign(profile, simulated_pairs=3000).compose()
        assert report.target_mpairs > 50
        assert report.total_cost.area_mm2 > 60  # at least GenPairX+PHY
        assert report.throughput_mbps == pytest.approx(
            report.target_mpairs * 300, rel=1e-6)
