"""The run-table light-alignment kernel against the scalar oracle.

``oracles/core.py`` holds the profile-by-profile walk the kernel
replaced; for every attempt the kernel must return exactly the oracle's
``LightAlignment`` — score, CIGAR, ``ref_start``, profile — or ``None``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import core as oracle
from repro.core import LightAligner
from repro.core.light_align import _mask_to_cigar

LENGTHS = (1, 30, 60, 100, 150, 151, 250)
THRESHOLDS = (260, 276, 290)


def signature(hit):
    if hit is None:
        return None
    return hit.score, str(hit.cigar), hit.ref_start, hit.profile


@st.composite
def attempts(draw):
    """``(max_edits, threshold, read, window, offset)``: a read cut from
    a template with mismatches and at most one insertion or deletion run
    (1-7 bases, at any split including the first and last base), in a
    window padded 0-8 bases either side — so shifts are clamped on
    either side — at its true offset or a wrong, possibly negative one.
    A two-letter alphabet makes shifted frames tie."""
    length = draw(st.sampled_from(LENGTHS))
    alphabet = draw(st.sampled_from((4, 4, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    template = rng.integers(0, alphabet, size=length + 16, dtype=np.uint8)
    kind = draw(st.sampled_from(("none", "insertion", "deletion")))
    run = draw(st.integers(1, 7))
    split = draw(st.integers(0, length))
    body = template[8:]
    if kind == "insertion":
        body = np.concatenate([body[:split],
                               rng.integers(0, alphabet, size=run,
                                            dtype=np.uint8),
                               body[split:]])
    elif kind == "deletion":
        body = np.concatenate([body[:split], body[split + run:]])
    read = body[:length].copy()
    for position in draw(st.lists(st.integers(0, length - 1), max_size=4)):
        read[position] = (read[position] + 1) % 4
    left, right = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    window = template[8 - left:8 + length + right]
    offset = left + draw(st.sampled_from((0, 0, 0, -1, 1, -left - 3)))
    return (draw(st.integers(1, 6)), draw(st.sampled_from(THRESHOLDS)),
            read, window, offset)


class TestKernelEqualsOracle:
    @settings(deadline=None)
    @given(attempts())
    def test_every_attempt(self, attempt):
        max_edits, threshold, read, window, offset = attempt
        got = LightAligner(max_edits=max_edits,
                           threshold=threshold).align(read, window, offset)
        want = oracle.ScalarLightAligner(
            max_edits=max_edits, threshold=threshold).align(read, window,
                                                            offset)
        assert signature(got) == signature(want)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_indel_at_every_split(self, length):
        """Deletions and insertions of every run 1-7 at splits spread
        over one read, its first and last base included, for the
        default aligner."""
        rng = np.random.default_rng(length)
        template = rng.integers(0, 4, size=length + 24, dtype=np.uint8)
        window = template[:length + 16]
        kernel, scalar = LightAligner(), oracle.ScalarLightAligner()
        splits = sorted({*range(0, length, max(1, length // 25)),
                         1, length - 1, length})
        hits = 0
        for run in range(1, 8):
            inserted = rng.integers(0, 4, size=run, dtype=np.uint8)
            for split in splits:
                body = template[8:]
                for read in (
                        np.concatenate([body[:split],
                                        body[split + run:]])[:length],
                        np.concatenate([body[:split], inserted,
                                        body[split:]])[:length]):
                    got = kernel.align(read, window, 8)
                    assert signature(got) == signature(
                        scalar.align(read, window, 8))
                    hits += got is not None
        assert hits


class TestLatticeOrder:
    """The kernel accepts a slot with *at most* ``m`` mismatches; that is
    the slot with exactly ``m`` only because a profile with one mismatch
    fewer and the same indel run always comes earlier in the lattice."""

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("max_edits", [1, 5, 6])
    def test_one_mismatch_fewer_comes_first(self, threshold, max_edits):
        aligner = LightAligner(max_edits=max_edits, threshold=threshold)
        for length in range(30, 301):
            profiles = aligner.profiles_for(length)
            where = {(p.mismatches, p.insertion_run, p.deletion_run): index
                     for index, p in enumerate(profiles)}
            for index, profile in enumerate(profiles):
                if profile.mismatches:
                    sibling = (profile.mismatches - 1, profile.insertion_run,
                               profile.deletion_run)
                    assert where.get(sibling, len(profiles)) < index, \
                        (length, profile)


class TestMaskToCigar:
    """The run-length ``=``/``X`` encoding against the per-base loop."""

    @pytest.mark.parametrize("mask", [
        [], [True], [False], [True] * 150, [False] * 150,
        [True, False] * 75, [False, True] * 75, [False] + [True] * 149,
        [True] * 149 + [False]])
    def test_edge_masks(self, mask):
        mask = np.array(mask, dtype=bool)
        assert _mask_to_cigar(mask) == oracle.mask_to_cigar(mask)

    @given(st.lists(st.booleans(), max_size=300))
    def test_random_masks(self, mask):
        mask = np.array(mask, dtype=bool)
        assert _mask_to_cigar(mask) == oracle.mask_to_cigar(mask)
