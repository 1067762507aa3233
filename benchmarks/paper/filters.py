"""Pre-alignment filter baselines: the related work of §8 and §3.2.

* Shifted Hamming Distance (SHD, Xin et al., Bioinformatics 2015), the
  filter Light Alignment generalizes (§4.6): Hamming masks between the
  read and ``2e + 1`` shifted copies of the reference, each *amended*
  (match runs too short to be real alignment segments are flattened),
  ANDed together; the candidate is rejected when the surviving
  mismatch count exceeds the edit threshold.  It only answers "possibly
  within e edits / definitely not" — no score, no CIGAR.
* GateKeeper (Alser et al., 2017), SHD's FPGA-friendly simplification:
  the same masks without the amendment, a cheaper filter with a higher
  false-positive rate.  The ladder the bench shows is GateKeeper < SHD
  < Light Alignment.
* Whole-read exact matching, the technique of prior single-end
  accelerators (GenCache, GenAx) whose paired-end weakness §3.2
  measures: both mates must match, so the hit rate drops from 55.7% to
  36.8%.
* :class:`FilteredLightAligner`, the SHD + Light Alignment combination
  the paper flags as future work: the filter is cheaper per candidate,
  so screening before the score-and-CIGAR alignment saves work on
  repeat-heavy reads whose candidate lists are long.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.light_align import LightAligner, LightAlignment
from repro.genome.reference import ReferenceGenome


@dataclass(frozen=True)
class ShdResult:
    """Filter verdict for one candidate location."""

    passed: bool
    estimated_edits: int
    masks_computed: int


@dataclass(frozen=True)
class GateKeeperResult:
    """Filter verdict for one candidate location."""

    passed: bool
    estimated_edits: int


def _amend_mask(mismatch: np.ndarray, min_run: int = 3) -> np.ndarray:
    """Flatten match runs shorter than ``min_run`` into mismatches.

    SHD's amendment step: tiny match islands between mismatches cannot be
    part of a real alignment segment, so they are speculatively counted
    as errors, tightening the filter.
    """
    amended = mismatch.copy()
    length = len(amended)
    index = 0
    while index < length:
        if not amended[index]:
            run_start = index
            while index < length and not amended[index]:
                index += 1
            run_length = index - run_start
            interior = run_start > 0 and index < length
            if interior and run_length < min_run:
                amended[run_start:index] = True
        else:
            index += 1
    return amended


def shd_filter(read: np.ndarray, window: np.ndarray, offset: int,
               max_edits: int = 5, amend_min_run: int = 3) -> ShdResult:
    """Apply the SHD filter to ``read`` at ``window[offset ...]``.

    Returns ``passed=True`` when the candidate *may* align within
    ``max_edits`` edits (no false negatives for alignments within the
    shift range; false positives possible — that is the nature of a
    filter).
    """
    read = np.asarray(read, dtype=np.uint8)
    length = len(read)
    if length == 0:
        return ShdResult(passed=False, estimated_edits=length,
                         masks_computed=0)
    shift_lo = -min(max_edits, offset)
    shift_hi = min(max_edits, len(window) - offset - length)
    if shift_hi < 0 or shift_lo > 0:
        return ShdResult(passed=False, estimated_edits=length,
                         masks_computed=0)
    combined = np.ones(length, dtype=bool)  # True = mismatch everywhere
    masks = 0
    for shift in range(shift_lo, shift_hi + 1):
        ref_slice = window[offset + shift:offset + shift + length]
        mismatch = read != ref_slice
        combined &= _amend_mask(mismatch, amend_min_run)
        masks += 1
    estimated = int(np.count_nonzero(combined))
    return ShdResult(passed=estimated <= max_edits,
                     estimated_edits=estimated, masks_computed=masks)


def gatekeeper_filter(read: np.ndarray, window: np.ndarray, offset: int,
                      max_edits: int = 5) -> GateKeeperResult:
    """AND the raw shifted Hamming masks; reject if mismatches exceed
    the threshold."""
    read = np.asarray(read, dtype=np.uint8)
    length = len(read)
    if length == 0:
        return GateKeeperResult(passed=False, estimated_edits=length)
    shift_lo = -min(max_edits, offset)
    shift_hi = min(max_edits, len(window) - offset - length)
    if shift_hi < 0 or shift_lo > 0:
        return GateKeeperResult(passed=False, estimated_edits=length)
    combined = np.ones(length, dtype=bool)
    for shift in range(shift_lo, shift_hi + 1):
        ref_slice = window[offset + shift:offset + shift + length]
        combined &= (read != ref_slice)
    estimated = int(np.count_nonzero(combined))
    return GateKeeperResult(passed=estimated <= max_edits,
                            estimated_edits=estimated)


def exact_match_at(reference: ReferenceGenome, codes: np.ndarray,
                   chromosome: str, position: int,
                   slack: int = 8) -> Optional[int]:
    """The chromosome-local start where ``codes`` matches the reference
    exactly, searched within ``slack`` bases of ``position``; ``None``
    when no start in that range matches."""
    length = len(codes)
    chrom_len = reference.length(chromosome)
    for offset in range(-slack, slack + 1):
        start = position + offset
        if start < 0 or start + length > chrom_len:
            continue
        if np.array_equal(reference.fetch(chromosome, start,
                                          start + length), codes):
            return start
    return None


@dataclass
class FilterStats:
    """How much work the pre-filter saved / cost."""

    candidates_seen: int = 0
    filtered_out: int = 0
    light_attempts: int = 0

    @property
    def rejection_rate(self) -> float:
        if self.candidates_seen == 0:
            return 0.0
        return self.filtered_out / self.candidates_seen


class FilteredLightAligner:
    """SHD pre-filter in front of Light Alignment, both at e = 5."""

    def __init__(self) -> None:
        self.light = LightAligner()
        self.stats = FilterStats()

    def align(self, read: np.ndarray, window: np.ndarray,
              offset: int) -> Optional[LightAlignment]:
        """Filter first; light-align only candidates that pass.

        SHD has no false negatives within the shift range, so a rejected
        candidate could not have light-aligned either — the combination
        returns exactly what :class:`LightAligner` would, cheaper.
        """
        self.stats.candidates_seen += 1
        if not shd_filter(read, window, offset).passed:
            self.stats.filtered_out += 1
            return None
        self.stats.light_attempts += 1
        return self.light.align(read, window, offset)
