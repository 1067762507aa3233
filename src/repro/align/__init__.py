"""DP alignment substrate: scoring, the banded Gotoh kernel, chaining."""

from .banded import align_banded, align_problems
from .chaining import AnchorColumns, chain_anchors
from .dp import NEG_INF, AlignmentResult
from .scoring import DEFAULT_SCHEME, HIGH_QUALITY_THRESHOLD, ScoringScheme

__all__ = [
    "AnchorColumns", "AlignmentResult", "DEFAULT_SCHEME",
    "HIGH_QUALITY_THRESHOLD", "NEG_INF", "ScoringScheme", "align_banded",
    "align_problems", "chain_anchors",
]
