"""Baseline software mapper ("MM2"): minimizer seed-chain-align pipeline
(its four stages are ``mm2.*`` spans, see :mod:`repro.obs.trace`)."""

from .index import IndexStats, MinimizerIndex
from .minimizer import extract_minimizers, extract_minimizers_rows
from .mm2 import MapperConfig, MapperStats, Mm2LikeMapper

__all__ = [
    "IndexStats", "MapperConfig", "MapperStats", "MinimizerIndex",
    "Mm2LikeMapper", "extract_minimizers", "extract_minimizers_rows",
]
