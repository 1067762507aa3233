"""Light Alignment: DP-free alignment via Shifted Hamming masks (§4.6).

Light Alignment handles the ~70% of read-pairs whose edits are *simple* —
scattered mismatches, or one consecutive insertion/deletion run, or the one
mismatch-plus-deletion combo — i.e. exactly the edit vocabulary of Table 1
(every profile scoring at least 276 under the affine scheme).

Mechanism, mirroring the hardware module (§5.4):

1. compute the Hamming mask between the read (length ``L``) and
   ``2*e + 1`` shifted copies of the reference window (shift ``s``
   compares ``read[i]`` against ``ref[candidate + s + i]``) — for a
   stack of attempts one ``(attempts x shifts x L)`` mismatch block and
   one ``cumsum`` over it, mask after mask;
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
   position is searched (the first minimum of the per-split count);
4. the winner's CIGAR: its mask rows' bytes (the indel run spliced
   between the two) become ``=``/``X``/``I``/``D`` letters in one
   ``bytes.translate``, which ``Cigar.from_ops`` run-length encodes.

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
from typing import List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..align.scoring import (DEFAULT_SCHEME, HIGH_QUALITY_THRESHOLD,
                             REFERENCE_READ_LENGTH, ScoringScheme)
from ..genome.cigar import Cigar

#: Attempts settled by one run-table pass: bounds its ``(rows, shifts,
#: L)`` mismatch block and prefix counts to a few MB.
STACK_ROWS = 256

#: ``bytes.translate`` table from a mismatch mask's bytes (1 where read
#: and reference differ) to op letters; an ``I``/``D`` run spliced into
#: them maps to itself.
_MISMATCH_OP = bytes.maketrans(b"\0\1", b"=X")


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
        the budgets ``0..M``, and every (profile, frame) slot of the
        lattice in the order it is tried — substitutions at the
        candidate frame first, then at re-anchored ones (an edit at the
        very read boundary can make a shifted start the better
        pure-mismatch reading), indels at ascending prefix frame ``a`` —
        one entry per mismatch split ``j``: ``(P index, T index, L -
        consumed)`` into an attempt's flattened ``(2, shifts, M + 1)``
        run table, and its slot ``(profile, a, b)``."""
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
        return (np.arange(width, dtype=np.int32),
                *np.array(entries, dtype=np.intp).T, slots)

    def align(self, read, window, offset):
        """Try to light-align ``read`` at ``window[offset ...]``.

        ``window`` must extend ``max_edits`` bases beyond the read span on
        both sides of ``offset`` where the genome allows; shifts that would
        leave the window are simply not considered.

        Returns ``None`` when no simple-edit profile fits — the DP-fallback
        signal.  Stacked: with ``offset`` a sequence, ``read`` and
        ``window`` are sequences too (a 2-D array's rows count), and a
        list of results comes back; attempts of one read length and
        shift range share one pass.
        """
        if np.ndim(offset):
            return self._align_rows(read, window,
                                    np.asarray(offset, dtype=np.int64))
        return self._align_rows([read], [window], np.array([offset]))[0]

    def _align_rows(self, reads, windows, offsets: np.ndarray) -> list:
        """:meth:`align` over stacked attempts."""
        max_e = self.max_edits
        if isinstance(reads, np.ndarray) and isinstance(windows, np.ndarray) \
                and windows.shape[1] == reads.shape[1] + 2 * max_e \
                and reads.shape[1] and (offsets == max_e).all():
            # Every row's window is exactly its whole shift range.
            return self._align_frames(reads, windows, offsets, -max_e, max_e)
        count = len(offsets)
        lengths = np.fromiter(map(len, reads), np.int64, count)
        # Valid shifts: ref indices [offset+s, offset+s+length) in-window.
        shift_lo = -np.minimum(max_e, offsets)
        shift_hi = np.minimum(max_e, np.fromiter(map(len, windows), np.int64,
                                                 count) - offsets - lengths)
        groups: dict = {}
        for row, key in enumerate(zip(lengths.tolist(), shift_lo.tolist(),
                                      shift_hi.tolist())):
            if key[0] and key[1] <= 0 <= key[2]:
                groups.setdefault(key, []).append(row)
        hits: list = [None] * count
        for (length, low, high), rows in groups.items():
            frames = np.array([windows[row][offsets[row] + low:
                                            offsets[row] + high + length]
                               for row in rows], dtype=np.uint8)
            for row, hit in zip(rows, self._align_frames(
                    np.array([reads[row] for row in rows], dtype=np.uint8),
                    frames, offsets[rows], low, high)):
                hits[row] = hit
        return hits

    def _align_frames(self, reads: np.ndarray, frames: np.ndarray,
                      offsets: np.ndarray, shift_lo: int,
                      shift_hi: int) -> list:
        """Attempts of one read length and shift range, each row of
        ``reads`` against its window from the first shift in ``frames``:
        one compare for the exact ones, then one ``(rows x shifts x L)``
        mismatch block and one ``cumsum`` per :data:`STACK_ROWS`."""
        length = reads.shape[1]
        profiles = self.profiles_for(length)
        hits: list = [None] * len(reads)
        if not profiles:
            return hits
        # Exact-match fast path: the 0-edit profile leads the lattice
        # (when its score clears the threshold), tried at shift 0 first.
        exact = np.zeros(len(reads), dtype=bool)
        if profiles[0].mismatches == 0:
            exact = (reads == frames[:, -shift_lo:length - shift_lo]).all(1)
        shared: dict = {}  # one (immutable) exact hit per offset
        for row in exact.nonzero()[0].tolist():
            offset = int(offsets[row])
            if offset not in shared:
                shared[offset] = LightAlignment(
                    profiles[0].score, _perfect_cigar(length), offset,
                    profiles[0])
            hits[row] = shared[offset]
        rest = (~exact).nonzero()[0]
        if rest.size:
            budgets, prefix, suffix, need, slots = self._slot_plan(
                length, shift_lo, shift_hi)
        for at in range(0, rest.size, STACK_ROWS):
            rows = rest[at:at + STACK_ROWS].tolist()
            mismatches = sliding_window_view(frames[rows], length, axis=1) \
                != reads[rows][:, None, :]
            shifts = mismatches.shape[1]
            # counts[m * L + q]: the mismatches of masks before m (of every
            # attempt, end to end) and of mask m in read[0:q) — one sorted
            # row answers each mask's run question by search.
            counts = np.zeros(mismatches.size + 1, dtype=np.int32)
            np.cumsum(mismatches, out=counts[1:])
            # Per mask and budget j: P ends where the (j+1)-th mismatch of
            # the mask is counted, T starts where all but j are; both
            # capped at L (a run may carry on into the next mask).
            starts = np.arange(0, mismatches.size, length)[:, None]
            longest_prefix = counts.searchsorted(counts[starts] + budgets,
                                                 "right") - 1 - starts
            longest_suffix = starts + length - counts.searchsorted(
                counts[starts + length] - budgets)
            runs = np.minimum(np.concatenate(
                (longest_prefix.reshape(len(rows), shifts, -1),
                 longest_suffix.reshape(len(rows), shifts, -1)), axis=1),
                length).reshape(len(rows), -1)
            fits = runs[:, prefix] + runs[:, suffix] >= need
            first = fits.argmax(1)
            for k in fits[np.arange(len(rows)), first].nonzero()[0].tolist():
                profile, a, b = slots[first[k]]
                letters = mismatches[k, a - shift_lo].tobytes()
                if a != b:
                    # Split q: read[0, q) in mask a, read[q + consumed, L)
                    # in mask b; the fewest mismatches where this is least.
                    consumed = profile.insertion_run
                    at_a = (k * shifts + a - shift_lo) * length
                    at_b = (k * shifts + b - shift_lo) * length + consumed
                    split = int(np.argmin(
                        counts[at_a:at_a + length - consumed + 1]
                        - counts[at_b:at_b + length - consumed + 1]))
                    letters = (letters[:split]
                               + (b"I" * consumed
                                  or b"D" * profile.deletion_run)
                               + mismatches[k, b - shift_lo,
                                            split + consumed:].tobytes())
                hits[rows[k]] = LightAlignment(
                    profile.score,
                    Cigar.from_ops(letters.translate(_MISMATCH_OP)),
                    int(offsets[rows[k]]) + a, profile)
        return hits


@lru_cache(maxsize=8)
def _perfect_cigar(length: int) -> Cigar:
    """The exact hit's CIGAR, one shared object per read length."""
    return Cigar.perfect(length)
