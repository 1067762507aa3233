"""End-to-end variant calling: the paper's Table 7 workflow in miniature.

Reference -> diploid donor with truth variants -> simulated reads ->
hybrid GenPair+MM2 mapping -> pileup -> variant calls -> accuracy versus
the truth set -> VCF on disk, in a fresh temporary directory.

Run:  python examples/variant_calling_pipeline.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import GenPairPipeline
from repro.genome import (ErrorModel, ReadSimulator, generate_reference,
                          plant_variants)
from repro.mapper import Mm2LikeMapper
from repro.util import format_table
from repro.variants import (Pileup, call_variants, compare_calls,
                            split_by_kind, write_vcf)


def main() -> None:
    rng = np.random.default_rng(2025)

    print("1. Reference + diploid donor (SNP 1e-3, INDEL 2e-4) ...")
    reference = generate_reference(rng, (80_000,))
    donor = plant_variants(rng, reference)
    truth_snps, truth_indels = split_by_kind(donor.truth)
    print(f"   truth: {len(truth_snps)} SNPs, {len(truth_indels)} INDELs")

    print("2. Simulating ~18x coverage of 2x150bp pairs ...")
    simulator = ReadSimulator(reference, donor=donor,
                              error_model=ErrorModel.giab_like(), seed=3)
    pairs = simulator.simulate_pairs(2400)

    print("3. Mapping with GenPair + MM2 hybrid ...")
    mapper = Mm2LikeMapper(reference)
    pipeline = GenPairPipeline(reference, fallback=mapper)
    results = pipeline.map_pairs(pairs)
    print(f"   {pipeline.stats.light_aligned_pct:.1f}% light-aligned, "
          f"{pipeline.stats.unmapped} pairs unmapped")

    print("4. Pileup + variant calling ...")
    pileup = Pileup(reference)
    for result in results:
        pileup.add_record(result.record1)
        pileup.add_record(result.record2)
    calls = call_variants(pileup)
    call_snps, call_indels = split_by_kind(calls)

    print("5. Accuracy versus the truth set:")
    rows = []
    for kind, called, truth in (("SNP", call_snps, truth_snps),
                                ("INDEL", call_indels, truth_indels)):
        report = compare_calls(called, truth)
        rows.append((kind, report.true_positives,
                     report.false_positives, report.false_negatives,
                     f"{report.precision:.4f}", f"{report.recall:.4f}",
                     f"{report.f1:.4f}"))
    print(format_table(("kind", "TP", "FP", "FN", "precision", "recall",
                        "F1"), rows))

    out = Path(tempfile.mkdtemp(prefix="repro_variants_")) / "calls.vcf"
    count = write_vcf(out, calls, reference=reference)
    print(f"6. Wrote {count} calls to {out}")


if __name__ == "__main__":
    main()
