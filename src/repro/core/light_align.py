"""Light Alignment: DP-free alignment via Shifted Hamming masks (§4.6).

Light Alignment handles the ~70% of read-pairs whose edits are *simple* —
scattered mismatches, or one consecutive insertion/deletion run, or the one
mismatch-plus-deletion combo — i.e. exactly the edit vocabulary of Table 1
(every profile scoring at least 276 under the affine scheme).

Mechanism, mirroring the hardware module (§5.4):

1. compute the Hamming mask between the read (length ``L``) and
   ``2*e + 1`` shifted copies of the reference window (shift ``s``
   compares ``read[i]`` against ``ref[candidate + s + i]``) — one
   ``(shifts x L)`` mismatch matrix and one ``cumsum`` over it, mask after
   mask;
2. for every mask, find the longest run from the start and from the end
   — generalised to runs that allow up to ``j`` mismatches: ``P[s, j]`` is
   the longest prefix of mask ``s`` with at most ``j`` mismatches,
   ``T[s, j]`` the longest such suffix, for ``j`` up to the lattice's
   largest mismatch count ``M``;
3. fit the admissible edit profiles in decreasing score order: an
   insertion run of length ``k`` is a prefix in mask ``a`` plus a suffix
   in mask ``a - k`` covering ``L - k`` bases; a deletion run a prefix in
   ``a`` plus a suffix in ``a + k`` covering the whole read; ``m``
   mismatches are split ``j`` / ``m - j`` between them, so the profile fits
   at frame ``a`` iff ``max_{j <= m} P[a, j] + T[b, m - j] + consumed >=
   L`` (a substitution profile is the case ``k = 0``: ``m`` mismatches in
   all).  One comparison settles every (profile, frame) slot of the
   lattice; the first slot that fits wins, and only its indel split
   position is searched (the first minimum of the per-split count).

A slot fits with *at most* ``m`` mismatches, yet is still the slot that
holds exactly ``m``: a profile with ``m' < m`` mismatches and the same
indel run scores higher, so it sits earlier in the lattice and its slot
at the same frame — which fits — would have won first.

The first profile that fits yields the *optimal* alignment among all
alignments scoring at or above the threshold (validated against full DP in
the test suite); if none fits, the caller falls back to DP (Fig 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

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
        self._slot_plan = lru_cache(maxsize=64)(self._slot_plan_uncached)

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

    def _slot_plan_uncached(self, length: int, shift_lo: int,
                            shift_hi: int) -> tuple:
        """What every attempt of one read length and shift range shares:
        the window index of each mask's reference bases, each mask's
        start in the end-to-end prefix counts, the budgets ``0..M``, and
        every (profile, frame) slot of the lattice in the order it is
        tried — substitutions at the candidate frame first, then at
        re-anchored ones (an edit at the very read boundary can make a
        shifted start the better pure-mismatch reading), indels at
        ascending prefix frame ``a`` — one entry per mismatch split
        ``j``: ``(P index, T index, L - consumed)`` into the flattened
        ``(2, shifts, M + 1)`` run table, and its slot
        ``(profile, a, b)``."""
        profiles = self.profiles_for(length)
        shifts = range(shift_lo, shift_hi + 1)
        width = max(p.mismatches for p in profiles) + 1
        entries, slots = [], []
        for profile in profiles:
            delta = profile.deletion_run - profile.insertion_run
            for a in (shifts if delta else sorted(shifts, key=abs)):
                b = a + delta
                if shift_lo <= b <= shift_hi:
                    for j in range(profile.mismatches + 1):
                        entries.append((
                            (a - shift_lo) * width + j,
                            (len(shifts) + b - shift_lo) * width
                            + profile.mismatches - j,
                            length - profile.insertion_run))
                        slots.append((profile, a, b))
        rows = np.arange(len(shifts))[:, None]
        return (rows + np.arange(length), rows * length, np.arange(width),
                *np.array(entries, dtype=np.intp).T, slots)

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
        # whole mask machinery with an identical result (compared as bytes).
        profiles = self.profiles_for(length)
        if not profiles:
            return None
        if profiles[0].mismatches == 0 and (
                read.tobytes() == window[offset:offset + length].tobytes()):
            return LightAlignment(score=profiles[0].score,
                                  cigar=_perfect_cigar(length),
                                  ref_start=offset, profile=profiles[0])
        frames, starts, budgets, prefix, suffix, need, slots = \
            self._slot_plan(length, shift_lo, shift_hi)
        mismatches = window[offset + shift_lo:][frames] != read
        # counts[s * L + q]: the mismatches of masks before s, plus those
        # of mask s in read[0:q) — every mask's prefix counts end to end,
        # so one sorted row answers each mask's run question by search.
        counts = np.zeros(mismatches.size + 1, dtype=np.int64)
        np.cumsum(mismatches, out=counts[1:])
        # Per mask s and budget j: P ends where the (j+1)-th mismatch of
        # the mask is counted, T starts where all but j are; both capped
        # at L (a run may carry on into the next mask).
        longest_prefix = counts.searchsorted(counts[starts] + budgets,
                                             "right") - 1 - starts
        longest_suffix = starts + length - counts.searchsorted(
            counts[starts + length] - budgets)
        runs = np.minimum(np.concatenate((longest_prefix, longest_suffix)),
                          length).ravel()
        fits = runs[prefix] + runs[suffix] >= need
        first = int(fits.argmax())
        if not fits[first]:
            return None
        profile, a, b = slots[first]
        mask_a = ~mismatches[a - shift_lo]
        if a == b:
            return LightAlignment(score=profile.score,
                                  cigar=_mask_to_cigar(mask_a),
                                  ref_start=offset + a, profile=profile)
        # The split q puts read[0, q) in mask a and read[q + consumed, L)
        # in mask b; it holds the fewest mismatches where this is least.
        consumed = profile.insertion_run
        at_a = (a - shift_lo) * length
        at_b = (b - shift_lo) * length + consumed
        split = int(np.argmin(counts[at_a:at_a + length - consumed + 1]
                              - counts[at_b:at_b + length - consumed + 1]))
        indel = (consumed or profile.deletion_run, "I" if consumed else "D")
        tail = ~mismatches[b - shift_lo, split + consumed:]
        cigar = Cigar.from_pairs(_mask_to_cigar(mask_a[:split]).ops
                                 + (indel,) + _mask_to_cigar(tail).ops)
        return LightAlignment(score=profile.score, cigar=cigar,
                              ref_start=offset + a, profile=profile)


@lru_cache(maxsize=8)
def _perfect_cigar(length: int) -> Cigar:
    """The exact hit's CIGAR, one shared object per read length."""
    return Cigar.perfect(length)


def _mask_to_cigar(mask: np.ndarray) -> Cigar:
    """Convert a Hamming mask to an ``=``/``X`` CIGAR."""
    return Cigar.from_ops(np.where(mask, np.uint8(ord("=")),
                                   np.uint8(ord("X"))))
