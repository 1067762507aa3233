"""Light Alignment: DP-free alignment via Shifted Hamming masks (§4.6).

Light Alignment handles the ~70% of read-pairs whose edits are *simple* —
scattered mismatches, or one consecutive insertion/deletion run, or the one
mismatch-plus-deletion combo — i.e. exactly the edit vocabulary of Table 1
(every profile scoring at least 276 under the affine scheme).

Mechanism, mirroring the hardware module (§5.4):

1. compute the Hamming mask between the read and ``2*e + 1`` shifted copies
   of the reference window (shift ``s`` compares ``read[i]`` against
   ``ref[candidate + s + i]``);
2. for every mask, find the longest run of matches from the start and from
   the end;
3. try each admissible edit profile in decreasing score order: an insertion
   run of length ``k`` manifests as a start-run in mask ``a`` plus an
   end-run in mask ``a - k`` covering ``read_length - k`` bases; a deletion
   run as start-run in ``a`` plus end-run in ``a + k`` covering the whole
   read; leftover uncovered bases must equal the profile's mismatch count.

The first profile that fits yields the *optimal* alignment among all
alignments scoring at or above the threshold (validated against full DP in
the test suite); if none fits, the caller falls back to DP (Fig 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..align.scoring import (DEFAULT_SCHEME, HIGH_QUALITY_THRESHOLD,
                             REFERENCE_READ_LENGTH, ScoringScheme)
from ..genome.cigar import Cigar


@dataclass(frozen=True)
class EditProfile:
    """A simple edit combination from the Table 1 lattice."""

    mismatches: int
    insertion_run: int
    deletion_run: int
    score: int

    def describe(self) -> str:
        """Human-readable label matching Table 1's wording."""
        parts = []
        if self.mismatches:
            plural = "es" if self.mismatches > 1 else ""
            parts.append(f"{self.mismatches} Mismatch{plural}")
        if self.insertion_run:
            label = ("1 Insertion" if self.insertion_run == 1 else
                     f"{self.insertion_run} Consecutive Insertions")
            parts.append(label)
        if self.deletion_run:
            label = ("1 Deletion" if self.deletion_run == 1 else
                     f"{self.deletion_run} Consecutive Deletions")
            parts.append(label)
        return " & ".join(parts) if parts else "None"


def enumerate_simple_profiles(read_length: int,
                              scheme: ScoringScheme = DEFAULT_SCHEME,
                              threshold: int = HIGH_QUALITY_THRESHOLD,
                              max_run: int = 16) -> Tuple[EditProfile, ...]:
    """All simple edit profiles scoring at least ``threshold``.

    "Simple" means scattered mismatches plus at most one consecutive run of
    either insertions or deletions (never both).  With the default scheme,
    a 150bp read and threshold 276 this reproduces Table 1 row for row.
    Profiles are returned best-score-first — the order Light Alignment
    tries them (§4.6: "starting with the one with the best score").
    """
    profiles: List[EditProfile] = []
    for mismatches in range(0, read_length + 1):
        base = scheme.score_profile(read_length, mismatches=mismatches)
        if base < threshold:
            break
        profiles.append(EditProfile(mismatches, 0, 0, base))
        for kind in ("ins", "del"):
            for run in range(1, max_run + 1):
                ins = run if kind == "ins" else 0
                dele = run if kind == "del" else 0
                if mismatches + ins > read_length:
                    break
                score = scheme.score_profile(read_length, mismatches,
                                             ins, dele)
                if score < threshold:
                    break
                profiles.append(EditProfile(mismatches, ins, dele, score))
    profiles.sort(key=lambda p: (-p.score, p.mismatches,
                                 p.insertion_run + p.deletion_run))
    return tuple(profiles)


@dataclass(frozen=True)
class LightAlignment:
    """A successful light alignment, window-relative.

    ``ref_start`` is the offset of the alignment start *within the window*
    handed to :meth:`LightAligner.align`; the pipeline converts it back to
    genome coordinates.
    """

    score: int
    cigar: Cigar
    ref_start: int
    profile: EditProfile


class LightAligner:
    """Shifted-Hamming-Distance aligner over the simple-edit lattice."""

    def __init__(self, scheme: ScoringScheme = DEFAULT_SCHEME,
                 max_edits: int = 5,
                 threshold: int = HIGH_QUALITY_THRESHOLD) -> None:
        """``max_edits`` bounds the shift range (2e+1 Hamming masks);
        ``threshold`` is the §3.4 acceptance score of a 150-base read, and
        a read of another length keeps that edit budget under its own
        perfect score."""
        if max_edits < 1:
            raise ValueError("max_edits must be at least 1")
        self.scheme = scheme
        self.max_edits = max_edits
        self.threshold = threshold
        self._profile_cache = lru_cache(maxsize=8)(self._profiles_uncached)

    def _profiles_uncached(self, read_length: int
                           ) -> Tuple[EditProfile, ...]:
        budget = (self.scheme.perfect_score(REFERENCE_READ_LENGTH)
                  - self.threshold)
        # The mask range only reaches max_edits shifts, so longer runs
        # are not detectable: max_run caps the lattice there.
        return enumerate_simple_profiles(
            read_length, self.scheme,
            self.scheme.perfect_score(read_length) - budget,
            max_run=self.max_edits)

    def profiles_for(self, read_length: int) -> Tuple[EditProfile, ...]:
        """The profile lattice for one read length (cached)."""
        return self._profile_cache(read_length)

    def align(self, read: np.ndarray, window: np.ndarray,
              offset: int) -> Optional[LightAlignment]:
        """Try to light-align ``read`` at ``window[offset ...]``.

        ``window`` must extend ``max_edits`` bases beyond the read span on
        both sides of ``offset`` where the genome allows; shifts that would
        leave the window are simply not considered.

        Returns ``None`` when no simple-edit profile fits — the DP-fallback
        signal.
        """
        read = np.asarray(read, dtype=np.uint8)
        length = len(read)
        if length == 0:
            return None
        max_e = self.max_edits
        # Valid shifts: ref indices [offset+s, offset+s+length) in-window.
        shift_lo = -min(max_e, offset)
        shift_hi = min(max_e, len(window) - offset - length)
        if shift_hi < 0 or shift_lo > 0:
            return None
        # Exact-match fast path: the profile lattice is best-score-first
        # and the 0-edit profile always leads it (when the perfect score
        # clears the threshold at all), tried at shift 0 first — so a
        # read matching the candidate frame exactly short-circuits the
        # whole mask machinery with an identical result.
        profiles = self.profiles_for(length)
        if profiles and profiles[0].mismatches == 0 and np.array_equal(
                read, window[offset:offset + length]):
            return LightAlignment(score=profiles[0].score,
                                  cigar=Cigar.from_pairs([(length, "=")]),
                                  ref_start=offset, profile=profiles[0])
        shifts = range(shift_lo, shift_hi + 1)
        masks = {}
        prefix_mismatches = {}
        for shift in shifts:
            ref_slice = window[offset + shift:offset + shift + length]
            mask = read == ref_slice
            masks[shift] = mask
            # prefix_mismatches[shift][q] = mismatches in read[0:q).
            cumulative = np.zeros(length + 1, dtype=np.int64)
            np.cumsum(~mask, out=cumulative[1:])
            prefix_mismatches[shift] = cumulative

        # (shift, suffix frame delta) -> (best split, its mismatches):
        # every profile with the same indel run asks the same question.
        splits: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for profile in profiles:
            hit = self._try_profile(profile, length, masks,
                                    prefix_mismatches, shift_lo,
                                    shift_hi, offset, splits)
            if hit is not None:
                return hit
        return None

    # -- per-profile matching ---------------------------------------------

    def _try_profile(self, profile: EditProfile, length: int, masks,
                     prefix_mismatches, shift_lo: int, shift_hi: int,
                     offset: int, splits: Dict[Tuple[int, int],
                                               Tuple[int, int]]
                     ) -> Optional[LightAlignment]:
        if profile.insertion_run == 0 and profile.deletion_run == 0:
            # Check the candidate frame first, then re-anchored frames:
            # an edit at the very read boundary can make a shifted start
            # the better (pure-mismatch) interpretation.
            for shift in sorted(range(shift_lo, shift_hi + 1),
                                key=abs):
                if int(prefix_mismatches[shift][-1]) \
                        != profile.mismatches:
                    continue
                cigar = _mask_to_cigar(masks[shift])
                return LightAlignment(score=profile.score, cigar=cigar,
                                      ref_start=offset + shift,
                                      profile=profile)
            return None
        run = profile.insertion_run or profile.deletion_run
        is_insertion = profile.insertion_run > 0
        # Read bases at the split: the read prefix [0, q) aligns in mask
        # ``a``; the suffix [q + consumed, length) in mask ``b``.  An
        # insertion consumes ``run`` read bases at the split and shifts
        # the suffix frame left; a deletion consumes none and shifts it
        # right (see module docstring).
        suffix_delta = -run if is_insertion else run
        consumed = run if is_insertion else 0
        for a in range(shift_lo, shift_hi + 1):
            b = a + suffix_delta
            if not shift_lo <= b <= shift_hi:
                continue
            best = splits.get((a, suffix_delta))
            if best is None:
                pre_a = prefix_mismatches[a]
                pre_b = prefix_mismatches[b]
                # Mismatches as a function of the split position q:
                # prefix mismatches below q plus suffix mismatches
                # at/after q+c.
                totals = pre_a[:length - consumed + 1] \
                    + (pre_b[-1] - pre_b[consumed:])
                best_split = int(np.argmin(totals))
                best = splits[a, suffix_delta] = (best_split,
                                                  int(totals[best_split]))
            best_split, mismatches = best
            if mismatches != profile.mismatches:
                continue
            cigar = self._split_cigar(masks[a], masks[b], best_split,
                                      consumed, run, is_insertion, length)
            return LightAlignment(score=profile.score, cigar=cigar,
                                  ref_start=offset + a, profile=profile)
        return None

    @staticmethod
    def _split_cigar(mask_a, mask_b, split: int, consumed: int, run: int,
                     is_insertion: bool, length: int) -> Cigar:
        """CIGAR for prefix-in-a, indel, suffix-in-b at ``split``."""
        pairs = list(_mask_to_cigar(mask_a[:split]).ops)
        pairs.append((run, "I" if is_insertion else "D"))
        pairs.extend(_mask_to_cigar(mask_b[split + consumed:]).ops)
        return Cigar.from_pairs(pairs)


def _mask_to_cigar(mask: np.ndarray) -> Cigar:
    """Convert a Hamming mask to an ``=``/``X`` CIGAR."""
    pairs = []
    if mask.size == 0:
        return Cigar(())
    current = bool(mask[0])
    run = 0
    for value in mask.tolist():
        if value == current:
            run += 1
        else:
            pairs.append((run, "=" if current else "X"))
            current = value
            run = 1
    pairs.append((run, "=" if current else "X"))
    return Cigar.from_pairs(pairs)
