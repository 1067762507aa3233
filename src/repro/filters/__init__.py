"""Pre-alignment filters: the related-work baselines of §8.

Library functions the comparison benches call
(``benchmarks/bench_filters.py``); the mapping pipeline uses none of
them.

* :mod:`~repro.filters.shd` — Shifted Hamming Distance, the filter Light
  Alignment generalizes;
* :mod:`~repro.filters.gatekeeper` — GateKeeper's cheaper variant;
* :mod:`~repro.filters.adjacency` — FastHASH's intra-read adjacency,
  the single-end ancestor of Paired-Adjacency Filtering;
* :mod:`~repro.filters.exact` — whole-read exact matching (the §3.2
  baseline whose paired-end weakness motivates GenPair);
* :mod:`~repro.filters.combined` — the SHD + Light Alignment combination
  the paper flags as future work.
"""

from .adjacency import AdjacencyResult, adjacency_filter
from .combined import FilterStats, FilteredLightAligner
from .exact import ExactMatchVerdict, exact_match_at, pair_exact_match
from .gatekeeper import GateKeeperResult, gatekeeper_filter
from .shd import ShdResult, shd_filter

__all__ = [
    "AdjacencyResult", "ExactMatchVerdict", "FilterStats",
    "FilteredLightAligner", "GateKeeperResult", "ShdResult",
    "adjacency_filter", "exact_match_at", "gatekeeper_filter",
    "pair_exact_match", "shd_filter",
]
