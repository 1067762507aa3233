"""DP alignment substrate: scoring, Gotoh aligners, banding, chaining."""

from .banded import AlignmentStack, align_banded, stack_problems
from .chaining import (Anchor, AnchorColumns, Chain, ChainingResult,
                       chain_anchors)
from .dp import NEG_INF, AlignmentResult, align_local, align_semiglobal
from .scoring import DEFAULT_SCHEME, HIGH_QUALITY_THRESHOLD, ScoringScheme

__all__ = [
    "Anchor", "AnchorColumns", "AlignmentResult", "AlignmentStack",
    "Chain", "ChainingResult", "DEFAULT_SCHEME", "HIGH_QUALITY_THRESHOLD",
    "NEG_INF", "ScoringScheme", "align_banded", "align_local",
    "align_semiglobal", "chain_anchors", "stack_problems",
]
