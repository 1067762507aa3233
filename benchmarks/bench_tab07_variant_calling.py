"""Table 7: variant-calling accuracy — MM2 vs GenPair+MM2 (± filter).

Paper findings (HG002, GRCh38, freebayes + vcfdist): GenPair+MM2's F1 is
within 0.003 of MM2 for both SNPs and INDELs; GenPair+MM2 has *better*
precision than MM2; the index filter's accuracy impact is negligible
(<= 0.0001 F1).

Scaled-down protocol: a 60kb donor genome with planted truth variants,
~18x coverage, the same pileup caller for every mapper.
"""

import numpy as np
from conftest import emit

from repro.core import GenPairConfig, GenPairPipeline, SeedMap
from repro.genome import (ErrorModel, ReadSimulator, generate_reference,
                          plant_variants)
from repro.mapper import MinimizerIndex, Mm2LikeMapper
from repro.util import format_table
from repro.variants import (Pileup, call_variants, compare_calls,
                            split_by_kind)

COVERAGE_PAIRS = 1800  # ~18x over 60kb


def build_world():
    rng = np.random.default_rng(555)
    reference = generate_reference(rng, (60_000,))
    donor = plant_variants(rng, reference)
    simulator = ReadSimulator(reference, donor=donor,
                              error_model=ErrorModel.giab_like(),
                              seed=556)
    pairs = simulator.simulate_pairs(COVERAGE_PAIRS)
    return reference, donor, pairs


def call_with(reference, records):
    pileup = Pileup(reference)
    for record in records:
        pileup.add_record(record)
    return call_variants(pileup)


def run_experiment():
    reference, donor, pairs = build_world()
    index = MinimizerIndex.build(reference)
    configs = {}

    # MM2 alone.
    mm2 = Mm2LikeMapper(reference, index=index)
    records = []
    for pair in pairs:
        records.extend(mm2.map_pair(pair.read1.codes, pair.read2.codes,
                                    pair.name).records)
    configs["MM2"] = call_with(reference, records)

    # GenPair + MM2, with and without the index filter.
    for label, threshold in (("GenPair+MM2", 500),
                             ("GenPair+MM2 no filter", None)):
        seedmap = SeedMap.build(reference, filter_threshold=threshold)
        fallback_mapper = Mm2LikeMapper(reference, index=index)
        pipeline = GenPairPipeline(
            reference, seedmap=seedmap,
            config=GenPairConfig(filter_threshold=threshold),
            fallback=fallback_mapper)
        records = []
        for result in pipeline.map_pairs(pairs):
            records.extend(result.records)
        configs[label] = call_with(reference, records)

    truth_snps, truth_indels = split_by_kind(donor.truth)
    reports = {}
    for label, calls in configs.items():
        call_snps, call_indels = split_by_kind(calls)
        reports[label] = (compare_calls(call_snps, truth_snps),
                          compare_calls(call_indels, truth_indels))
    return reports


def test_tab07_variant_calling(benchmark):
    reports = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    lines = []
    for kind_index, kind in enumerate(("SNP", "INDEL")):
        rows = []
        for label in ("MM2", "GenPair+MM2 no filter", "GenPair+MM2"):
            report = reports[label][kind_index]
            rows.append((label, report.true_positives,
                         report.false_positives,
                         f"{report.precision:.4f}",
                         f"{report.recall:.4f}", f"{report.f1:.4f}"))
        lines.append(format_table(
            ("mapper", "TP", "FP", "precision", "recall", "F1"), rows,
            title=f"Table 7 — variant calling ({kind}; paper: GenPair"
                  "+MM2 F1 within 0.003 of MM2)"))
        lines.append("")
    emit("tab07_variant_calling", "\n".join(lines))
    # Shape checks mirroring the paper's three observations.
    for kind_index in (0, 1):
        mm2 = reports["MM2"][kind_index]
        hybrid = reports["GenPair+MM2"][kind_index]
        no_filter = reports["GenPair+MM2 no filter"][kind_index]
        # (1) hybrid F1 within a small delta of MM2.
        assert abs(hybrid.f1 - mm2.f1) < 0.05
        # (3) the filter's impact is negligible.
        assert abs(hybrid.f1 - no_filter.f1) < 0.02
    # (2) hybrid precision at least matches MM2 on SNPs.
    assert reports["GenPair+MM2"][0].precision >= \
        reports["MM2"][0].precision - 0.005
