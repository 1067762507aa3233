"""Truth-set comparison (vcfdist stand-in) and accuracy metrics.

Calls are matched against the planted truth set by exact
``(chromosome, position, ref, alt)`` identity, with a small positional
slack for INDELs (equivalent representations of the same event can anchor
one base apart after realignment).  Variants absent from the truth set
count as false positives; truth variants not recovered as false negatives
— the paper's §6 accuracy protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..genome.variants import Variant


@dataclass(frozen=True)
class AccuracyReport:
    """TP/FP/FN with the derived metrics of Table 7."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        called = self.true_positives + self.false_positives
        return self.true_positives / called if called else 0.0

    @property
    def recall(self) -> float:
        truth = self.true_positives + self.false_negatives
        return self.true_positives / truth if truth else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def compare_calls(calls: Sequence[Variant], truth: Sequence[Variant],
                  indel_position_slack: int = 2) -> AccuracyReport:
    """Match a call set against the truth set."""
    truth_keys = {variant.key for variant in truth}
    # INDEL slack index: signature without exact position.
    indel_index: Dict[Tuple[str, int], List[Variant]] = {}
    for variant in truth:
        if variant.kind != "SNP":
            delta = len(variant.alt) - len(variant.ref)
            indel_index.setdefault((variant.chromosome, delta),
                                   []).append(variant)
    matched_truth = set()
    tp = fp = 0
    for call in calls:
        if call.key in truth_keys:
            if call.key not in matched_truth:
                matched_truth.add(call.key)
                tp += 1
            continue
        if call.kind != "SNP":
            delta = len(call.alt) - len(call.ref)
            candidates = indel_index.get((call.chromosome, delta), [])
            hit = next(
                (t for t in candidates
                 if abs(t.position - call.position)
                 <= indel_position_slack
                 and t.key not in matched_truth), None)
            if hit is not None:
                matched_truth.add(hit.key)
                tp += 1
                continue
        fp += 1
    fn = len({v.key for v in truth}) - len(matched_truth)
    return AccuracyReport(true_positives=tp, false_positives=fp,
                          false_negatives=fn)


def split_by_kind(variants: Iterable[Variant]
                  ) -> Tuple[List[Variant], List[Variant]]:
    """Split into (SNPs, INDELs) — Table 7 reports them separately."""
    snps: List[Variant] = []
    indels: List[Variant] = []
    for variant in variants:
        (snps if variant.kind == "SNP" else indels).append(variant)
    return snps, indels
