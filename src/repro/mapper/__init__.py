"""Baseline software mapper ("MM2"): minimizer seed-chain-align pipeline
(its four stages are ``mm2.*`` spans, see :mod:`repro.obs.trace`)."""

from .index import MAX_OCCURRENCES, IndexStats, MinimizerIndex
from .minimizer import K, W, extract_minimizers, extract_minimizers_rows
from .mm2 import MapperStats, Mm2LikeMapper

__all__ = [
    "IndexStats", "K", "MAX_OCCURRENCES", "MapperStats", "MinimizerIndex",
    "Mm2LikeMapper", "W", "extract_minimizers", "extract_minimizers_rows",
]
