"""Filter-then-align: the SHD + Light Alignment combination (§8).

The paper flags combining its Light Alignment with a SneakySnake/SHD-
class pre-filter as promising future work: the filter is cheaper per
candidate, so screening candidates before attempting the full
score-and-CIGAR light alignment saves work on repeat-heavy reads whose
candidate lists are long.  :class:`FilteredLightAligner` implements that
combination and counts how many light-alignment attempts the pre-filter
eliminates — the quantity the ablation bench reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..align.scoring import DEFAULT_SCHEME, HIGH_QUALITY_THRESHOLD, \
    ScoringScheme
from ..core.light_align import LightAligner, LightAlignment
from .shd import shd_filter


@dataclass
class FilterStats:
    """How much work the pre-filter saved / cost."""

    candidates_seen: int = 0
    filtered_out: int = 0
    light_attempts: int = 0
    false_rejections: int = 0  # only tracked by the validation helper

    @property
    def rejection_rate(self) -> float:
        if self.candidates_seen == 0:
            return 0.0
        return self.filtered_out / self.candidates_seen


class FilteredLightAligner:
    """SHD pre-filter in front of Light Alignment."""

    def __init__(self, scheme: ScoringScheme = DEFAULT_SCHEME,
                 max_edits: int = 5,
                 threshold: int = HIGH_QUALITY_THRESHOLD) -> None:
        self.light = LightAligner(scheme=scheme, max_edits=max_edits,
                                  threshold=threshold)
        self.max_edits = max_edits
        self.stats = FilterStats()

    def align(self, read: np.ndarray, window: np.ndarray,
              offset: int) -> Optional[LightAlignment]:
        """Filter first; light-align only candidates that pass.

        SHD has no false negatives within the shift range, so a rejected
        candidate could not have light-aligned either — the combination
        returns exactly what :class:`LightAligner` would, cheaper.
        """
        self.stats.candidates_seen += 1
        verdict = shd_filter(read, window, offset,
                             max_edits=self.max_edits)
        if not verdict.passed:
            self.stats.filtered_out += 1
            return None
        self.stats.light_attempts += 1
        return self.light.align(read, window, offset)

    def validate_against_unfiltered(self, read: np.ndarray,
                                    window: np.ndarray,
                                    offset: int) -> bool:
        """Check the no-false-negative property on one candidate.

        Returns True when filtered and unfiltered agree; increments
        ``false_rejections`` when the filter rejected a candidate the
        unfiltered aligner would have aligned (used by tests).
        """
        verdict = shd_filter(read, window, offset,
                             max_edits=self.max_edits)
        unfiltered = self.light.align(read, window, offset)
        if not verdict.passed and unfiltered is not None:
            self.stats.false_rejections += 1
            return False
        return True
