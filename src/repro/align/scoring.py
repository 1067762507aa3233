"""Alignment scoring scheme (minimap2 short-read preset).

The paper adopts Minimap2's short-read scoring with affine gap penalties
(§3.4): a perfect 150bp alignment scores 300, and Table 1 enumerates every
edit combination scoring >= 276.  Those numbers pin the constants exactly:

* match bonus **+2** per base,
* mismatch penalty **-8** (a mismatched base also forfeits its +2 match,
  so one mismatch costs 10 points: 300 -> 290),
* gap open **-12** and gap extend **-2**, with a length-``l`` gap costing
  ``12 + 2*l`` (one deletion: 300 -> 286; one insertion additionally
  forfeits the inserted base's match: 300 -> 284).

`score_profile` reproduces every row of Table 1 and is property-tested
against the DP aligners.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScoringScheme:
    """Affine-gap scoring constants.  Penalties are stored positive."""

    match: int = 2
    mismatch: int = 8
    gap_open: int = 12
    gap_extend: int = 2

    def __post_init__(self) -> None:
        if min(self.match, self.mismatch, self.gap_open,
               self.gap_extend) < 0:
            raise ValueError("scoring constants must be non-negative")

    def perfect_score(self, read_length: int) -> int:
        """Score of an exact, full-length alignment."""
        return self.match * read_length

    def substitution_cost(self) -> int:
        """Points lost by one mismatch relative to a match."""
        return self.match + self.mismatch

    def gap_cost(self, length: int) -> int:
        """Cost of one consecutive gap of ``length`` bases."""
        if length <= 0:
            return 0
        return self.gap_open + self.gap_extend * length

    def score_profile(self, read_length: int, mismatches: int = 0,
                      insertion_run: int = 0, deletion_run: int = 0) -> int:
        """Score of a read with the given simple edit profile.

        The profile mirrors Table 1's vocabulary: some number of (possibly
        scattered) mismatches, at most one consecutive insertion run, and
        at most one consecutive deletion run.  Inserted read bases do not
        match the reference, so they forfeit their match bonus in addition
        to the gap cost; deletions consume no read bases.
        """
        if min(read_length, mismatches, insertion_run, deletion_run) < 0:
            raise ValueError("profile counts must be non-negative")
        if mismatches + insertion_run > read_length:
            raise ValueError("edits exceed read length")
        score = self.match * (read_length - mismatches - insertion_run)
        score -= self.mismatch * mismatches
        score -= self.gap_cost(insertion_run)
        score -= self.gap_cost(deletion_run)
        return score


#: The scheme used everywhere in the reproduction (Table 1 constants).
DEFAULT_SCHEME = ScoringScheme()

#: Score threshold for "high quality" alignments in §3.4: alignments at or
#: above this exhibit at most the Table 1 edit vocabulary.  The paper
#: states it for :data:`REFERENCE_READ_LENGTH`-base reads.
HIGH_QUALITY_THRESHOLD = 276

#: The read length the paper's thresholds are stated at (2x150 bp).
REFERENCE_READ_LENGTH = 150
