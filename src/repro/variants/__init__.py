"""Variant-calling substrate: pileup, caller, truth comparison, mapeval."""

from .caller import CallerConfig, call_variants
from .compare import compare_calls, split_by_kind
from .mapeval import evaluate_mappings, is_correct
from .pileup import Pileup, sam_records
from .vcf import read_vcf, write_vcf

__all__ = [
    "CallerConfig", "Pileup", "call_variants", "compare_calls",
    "evaluate_mappings", "is_correct", "read_vcf", "sam_records",
    "split_by_kind", "write_vcf",
]
