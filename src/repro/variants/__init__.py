"""Variant-calling substrate: pileup, caller, truth comparison, mapeval."""

from .caller import CallerConfig, call_variants
from .compare import AccuracyReport, compare_calls, split_by_kind
from .mapeval import MapevalReport, evaluate_mappings, is_correct
from .pileup import ColumnCounts, Pileup, sam_records
from .vcf import read_vcf, write_vcf

__all__ = [
    "AccuracyReport", "CallerConfig", "ColumnCounts", "MapevalReport",
    "Pileup", "call_variants", "compare_calls", "evaluate_mappings",
    "is_correct", "read_vcf", "sam_records", "split_by_kind",
    "write_vcf",
]
