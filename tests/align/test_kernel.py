"""The stacked numpy Gotoh kernel against the scalar oracle.

``oracle.py`` holds the pure-Python loops the kernel replaced; every
observable of a result — score, CIGAR, spans, ``cells`` — must be equal,
ties included.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import (Phase, assume, find, given, settings,
                        strategies as st)

from oracles import align as oracle
from repro.align import (DEFAULT_SCHEME, ScoringScheme, align_banded,
                         align_problems, banded, dp)
from repro.api import Mapper
from repro.genome import (ErrorModel, ReadSimulator, generate_reference,
                          plant_variants)
from repro.genome.cigar import Cigar
from repro.genome.sequence import N_CODE
from repro.genome.reference import RepeatProfile

#: The default scheme, the tie schemes (``gap_open = 0`` makes opening and
#: extending equal, ``gap_extend = 0`` makes every gap length equal, all
#: zeros makes everything equal), two asymmetric ones and a heavy one whose
#: value bound straddles int16 planes' ``2**13`` on the drawn problems.
SCHEMES = (ScoringScheme(), ScoringScheme(2, 8, 0, 2),
           ScoringScheme(2, 8, 12, 0), ScoringScheme(1, 1, 0, 0),
           ScoringScheme(0, 0, 0, 0), ScoringScheme(1, 3, 5, 1),
           ScoringScheme(3, 2, 1, 4), ScoringScheme(2, 100, 50, 100))


def signature(result):
    return (result.score, str(result.cigar), result.ref_start,
            result.ref_end, result.cells)


def bases(draw, length, alphabet):
    return np.array(draw(st.lists(st.integers(0, alphabet - 1),
                                  min_size=length, max_size=length)),
                    dtype=np.uint8)


@st.composite
def problems(draw, max_stack=1):
    """``(reads, windows, diagonal, bandwidth, scheme)``: small alphabets
    force ties, windows may be shorter than the read, the diagonal may
    start left of the window (column-0 boundary) or run out of it."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 36))
    alphabet = draw(st.sampled_from((1, 2, 4)))
    stack = draw(st.integers(1, max_stack))
    reads = np.stack([bases(draw, n, alphabet) for _ in range(stack)])
    windows = np.stack([bases(draw, m, alphabet) for _ in range(stack)])
    if draw(st.booleans()):
        windows = (reads[:, :1] + 1 + np.zeros((stack, m), np.uint8)) % 4
        reads = np.repeat(reads[:, :1], n, axis=1)  # all-mismatch reads
    return (reads, windows, draw(st.integers(-8, m + 4)),
            draw(st.integers(1, 14)), draw(st.sampled_from(SCHEMES)))


class TestKernelEqualsOracle:
    @settings(deadline=None)
    @given(problems())
    def test_banded(self, problem):
        reads, windows, diagonal, bandwidth, scheme = problem
        got = align_banded(reads[0], windows[0], scheme, diagonal,
                           bandwidth)
        want = oracle.align_banded(reads[0], windows[0], scheme, diagonal,
                                   bandwidth)
        assert signature(got) == signature(want)

    @settings(deadline=None)
    @given(problems(max_stack=6))
    def test_stack_equals_singles_in_order(self, problem):
        reads, windows, diagonal, bandwidth, scheme = problem
        stack = align_banded(reads, windows, scheme, diagonal, bandwidth)
        singles = [align_banded(read, window, scheme, diagonal, bandwidth)
                   for read, window in zip(reads, windows)]
        assert [signature(r) for r in stack] == \
            [signature(r) for r in singles]
        assert stack.cells == sum(single.cells for single in singles)

    def test_band_leaving_window_charges_partial_cells(self):
        read = np.zeros(100, dtype=np.uint8)
        window = np.zeros(20, dtype=np.uint8)
        got = align_banded(read, window, diagonal=0, bandwidth=4)
        want = oracle.align_banded(read, window, diagonal=0, bandwidth=4)
        assert signature(got) == signature(want)
        assert got.score < 0 and 0 < got.cells < 100 * 9

    def test_scores_beyond_int32_use_wide_storage(self):
        """Every read base costs 15M whether mismatched or inserted: the
        score is past what half-width storage could hold next to the
        ``NEG_INF`` sentinel."""
        read = np.zeros(20, dtype=np.uint8)
        window = np.ones(30, dtype=np.uint8)
        scheme = ScoringScheme(2, 15_000_000, 12, 15_000_000)
        got = align_banded(read, window, scheme, diagonal=5, bandwidth=6)
        want = oracle.align_banded(read, window, scheme, diagonal=5,
                                   bandwidth=6)
        assert signature(got) == signature(want)
        assert got.score <= -(2 ** 28)


def mutated(rng, piece, every):
    """``piece`` with a mismatch every ``every`` bases, 3 bases deleted
    and 2 inserted."""
    read = piece.copy()
    read[::every] = (read[::every] + 1) % 4
    read = np.delete(read, slice(40, 43))
    return np.insert(read, 90, rng.integers(0, 4, 2).astype(np.uint8))


class TestMapperScale:
    """150-base reads, stacked, against the scalar loop: the hypothesis
    draw above stops at 24 bases, short of the shapes the mappers
    sweep."""

    def test_whole_window_band_clipped_at_both_ends(self):
        """The whole-window rescue band (diagonal ``m // 2``, half-width
        ``m // 2 + 8``): column 0 clips its first rows and column ``m``
        every row, so each row's first and last band columns move;
        reads hang off either end of the window, carry edits, or
        mismatch everywhere."""
        rng = np.random.default_rng(47)
        m, n = 260, 150
        diagonal, bandwidth = m // 2, m // 2 + 8
        rows = np.arange(1, n + 1)
        lo = np.maximum(1, rows + diagonal - bandwidth)
        hi = np.minimum(m, rows + diagonal + bandwidth)
        assert len(set((lo - rows).tolist())) > 1
        assert len(set((hi - rows).tolist())) > 1
        windows = rng.integers(0, 4, (5, m)).astype(np.uint8)
        windows[3] = 1
        reads = np.stack([
            np.concatenate([rng.integers(0, 4, 6).astype(np.uint8),
                            windows[0, :144]]),
            np.concatenate([windows[1, m - 141:],
                            rng.integers(0, 4, 9).astype(np.uint8)]),
            mutated(rng, windows[2, 60:211], 29),
            np.zeros(n, np.uint8),
            rng.integers(0, 4, n).astype(np.uint8)])
        got = align_banded(reads, windows, diagonal=diagonal,
                           bandwidth=bandwidth)
        want = oracle.align_banded(reads, windows, diagonal=diagonal,
                                   bandwidth=bandwidth)
        assert [signature(result) for result in got] \
            == [signature(result) for result in want]

    def test_cut_band(self, sweeps):
        """Candidate-DP problems (a 16-diagonal band at diagonal 24 of a
        198-base window) go through :func:`align_problems` cut to the
        band's span, in one stacked sweep; each equals the scalar loop
        on its whole window, read drifting to either band edge
        included."""
        rng = np.random.default_rng(48)
        problems = []
        for start, every in ((24, 31), (8, 0), (40, 0), (20, 17), (30, 0)):
            window = rng.integers(0, 4, 198).astype(np.uint8)
            piece = window[start:start + 151]
            read = mutated(rng, piece, every) if every else piece[:150]
            problems.append((read, window, 24, 16))
        problems.append((rng.integers(0, 4, 150).astype(np.uint8),
                         rng.integers(0, 4, 198).astype(np.uint8), 24, 16))
        results = align_problems(problems)
        assert [len(reads) for reads, *_ in sweeps] == [len(problems)]
        assert sweeps[0][1].shape[1] < 198  # cut
        for (read, window, diagonal, bandwidth), result in zip(problems,
                                                               results):
            assert signature(result) == signature(oracle.align_banded(
                read, window, diagonal=diagonal, bandwidth=bandwidth))


def plane_type(read, window, diagonal, bandwidth, scheme):
    """The plane type the kernel picks for a problem."""
    n, m = len(read), len(window)
    _low, width = dp._band_span(n, m, diagonal, bandwidth)
    return dp._plane_type(n, m, width, scheme)[0]


class TestPlaneTypes:
    """int16 planes below a value bound of ``2**13``, int32 above; the
    type never shows in a result."""

    @pytest.mark.parametrize("drawn", [np.int16, np.int32])
    def test_the_property_draws_both_types(self, drawn):
        # derandomize: the search must not depend on the run's seed.
        find(problems(), lambda problem: plane_type(
            problem[0][0], problem[1][0], *problem[2:]) is drawn,
             settings=settings(phases=[Phase.generate], database=None,
                               derandomize=True))

    def test_a_150_base_read_across_the_int16_bound(self):
        """Windows of growing length take the bound of a 150-base read
        across ``2**13``: a mutated copy of the window's middle and an
        all-mismatch read (the most negative scores, nearest the
        sentinel) equal the scalar loop on both sides."""
        rng = np.random.default_rng(13)
        # The bound is 1856 + 8m for the whole-window rescue band
        # (diagonal m // 2, half-width m // 2 + 8).
        seen = set()
        for m in (790, 793):
            window = rng.integers(0, 4, m).astype(np.uint8)
            similar = window[m // 2:m // 2 + 150].copy()
            similar[::17] = (similar[::17] + 1) % 4
            similar = np.insert(np.delete(similar, slice(60, 63)), 100,
                                [3, 3, 3])
            for read, ref in ((similar, window),
                              (np.zeros(150, np.uint8), np.ones(m, np.uint8))):
                options = dict(diagonal=m // 2, bandwidth=m // 2 + 8)
                got = align_banded(read, ref, **options)
                want = oracle.align_banded(read, ref, **options)
                seen.add(plane_type(read, ref, *options.values(),
                                    DEFAULT_SCHEME))
                assert signature(got) == signature(want)
        assert seen == {np.int16, np.int32}


#: The fields a kernel result resolves on first read.
LAZY_FIELDS = ("cigar", "ref_start")


def shifted_signature(result, offset):
    score, cigar, ref_start, ref_end, cells = signature(result)
    return (score, cigar, ref_start + offset, ref_end + offset, cells)


class TestLazyResults:
    """A kernel result walks its traceback and builds its CIGAR only when
    read; whatever the order of the reads, and after a rescue-style
    shift, the values are the oracle's."""

    @settings(deadline=None)
    @given(problems(max_stack=4), st.permutations(LAZY_FIELDS),
           st.integers(-50, 50), st.booleans())
    def test_fields_in_any_order_and_shifted(self, problem, order, offset,
                                             shift_first):
        reads, windows, diagonal, bandwidth, scheme = problem
        stack = align_banded(reads, windows, scheme, diagonal, bandwidth)
        for result, read, window in zip(stack, reads, windows):
            want = oracle.align_banded(read, window, scheme, diagonal,
                                       bandwidth)
            moved = result.shifted(offset)
            for name in order:  # the shift reads nothing of the original
                getattr(moved if shift_first else result, name)
            assert signature(result) == signature(want)
            assert signature(moved) == shifted_signature(want, offset)

    @settings(deadline=None)
    @given(problems(max_stack=4), st.sampled_from((pickle, copy)))
    def test_pickle_and_copy_resolve(self, problem, module):
        reads, windows, diagonal, bandwidth, scheme = problem
        stack = align_banded(reads, windows, scheme, diagonal, bandwidth)
        for result, read, window in zip(stack, reads, windows):
            want = oracle.align_banded(read, window, scheme, diagonal,
                                       bandwidth)
            if module is pickle:
                data = pickle.dumps(result)
                assert len(data) <= len(pickle.dumps(want))
                got = pickle.loads(data)
            else:
                got = copy.copy(result)
            assert signature(got) == signature(want)
            assert got == want and hash(got) == hash(want)

    def test_pickle_leaves_the_pointer_plane_behind(self):
        """A 64-problem sweep's pointer plane is ~300 KB; one pickled
        result is its score, spans and CIGAR."""
        rng = np.random.default_rng(5)
        windows = rng.integers(0, 4, (64, 198)).astype(np.uint8)
        reads = windows[:, 24:174].copy()
        stack = align_banded(reads, windows, diagonal=24, bandwidth=16)
        plane = stack[0]._pending[0].codes
        assert plane.nbytes > 250_000
        assert len(pickle.dumps(stack[7])) < 1_000
        assert str(stack[7].cigar) == "150="

    def test_an_eager_result_is_built_as_given(self):
        result = dp.AlignmentResult(5, Cigar.parse("2=1I"), 3, 5, 9)
        assert signature(result) == (5, "2=1I", 3, 5, 9)
        assert signature(result.shifted(4)) == (5, "2=1I", 7, 9, 9)


@st.composite
def problem_lists(draw):
    """Up to 40 ``(read, window, diagonal, bandwidth)`` problems of up to
    four shapes, ``None``s among them; bands inside their windows and
    bands the window clamps, repeats likely (two-letter alphabet)."""
    shapes = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 20),
                                     st.integers(-4, 12),
                                     st.integers(1, 8)),
                           min_size=1, max_size=4))
    chosen = draw(st.lists(st.one_of(st.none(), st.sampled_from(shapes)),
                           max_size=40))
    return [None if shape is None else
            (bases(draw, shape[0], 2), bases(draw, shape[1], 2), *shape[2:])
            for shape in chosen]


def record_sweeps(patch):
    """``(reads, windows, diagonal, bandwidth)`` of every kernel call
    :func:`align_problems` makes while ``patch`` lasts."""
    real, calls = banded.align_banded, []

    def recording(reads, windows, **options):
        calls.append((reads, windows, options["diagonal"],
                      options["bandwidth"]))
        return real(reads, windows, **options)

    patch.setattr(banded, "align_banded", recording)
    return calls


@pytest.fixture
def sweeps(monkeypatch):
    return record_sweeps(monkeypatch)


def lone(problem, scheme=DEFAULT_SCHEME):
    read, window, diagonal, bandwidth = problem
    return align_banded(read, window, scheme, diagonal, bandwidth)


class TestAlignProblems:
    @settings(deadline=None, max_examples=100)
    @given(problem_lists(), st.integers(1, 40_000),
           st.sampled_from(SCHEMES))
    def test_results_are_lone_calls_and_sweeps_fit_the_budget(
            self, problems, budget, scheme):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(banded, "STACK_BYTE_BUDGET", budget)
            calls = record_sweeps(patch)
            results = align_problems(problems, scheme)
        assert len(results) == len(problems)
        for problem, result in zip(problems, results):
            if problem is None:
                assert result is None
            else:  # ref_start read after the shift
                assert signature(result) == signature(lone(problem, scheme))
        distinct = set()
        for reads, windows, diagonal, bandwidth in calls:
            n, m = reads.shape[1], windows.shape[1]
            assert len(reads) == 1 or len(reads) * dp.plane_bytes(
                n, m, diagonal, bandwidth, scheme) <= budget
            for read, window in zip(reads, windows):
                key = (read.tobytes(), window.tobytes(), diagonal, bandwidth)
                assert key not in distinct  # each problem swept once
                distinct.add(key)

    def test_rescue_bands_at_different_diagonals_share_one_sweep(
            self, sweeps):
        """Six widened rescue bands of one bandwidth, at different
        diagonals of 1,150-base windows, cut to one shape."""
        rng = np.random.default_rng(3)
        problems = []
        for diagonal in (40, 170, 333, 512, 800, 960):
            window = rng.integers(0, 4, 1150).astype(np.uint8)
            read = window[diagonal:diagonal + 150].copy()
            read[::23] = (read[::23] + 1) % 4
            problems.append((read, window, diagonal + 3, 24))
        results = align_problems(problems)
        assert [(len(reads), windows.shape[1], diagonal, bandwidth)
                for reads, windows, diagonal, bandwidth in sweeps] \
            == [(6, 150 + 2 * 24 + 1, 24 + 1, 24)]
        for problem, result in zip(problems, results):
            assert signature(result) == signature(lone(problem))
            assert result.ref_start == problem[2] - 3

    def test_a_clamped_band_keeps_its_shape(self, sweeps):
        """A band the window clamps on either side is swept as given;
        one starting at the window's first diagonal is cut on the right
        only."""
        rng = np.random.default_rng(9)  # no diagonal the certificate takes
        read = rng.integers(0, 4, 150).astype(np.uint8)
        window = rng.integers(0, 4, 400).astype(np.uint8)
        problems = [(read, window, 10, 16), (read, window, 240, 16),
                    (read, window, 16, 16)]
        results = align_problems(problems)
        assert sorted((windows.shape[1], diagonal, bandwidth)
                      for _reads, windows, diagonal, bandwidth in sweeps) \
            == [(150 + 2 * 16, 16, 16), (400, 10, 16), (400, 240, 16)]
        for problem, result in zip(problems, results):
            assert signature(result) == signature(lone(problem))

    def test_repeats_are_swept_once_and_each_carries_its_cells(self, sweeps):
        """The same read in windows that cut to the same bases: one
        problem swept, every member a whole result of its own window.
        Two mismatches keep the certificate from resolving it."""
        rng = np.random.default_rng(8)
        window = rng.integers(0, 4, 300).astype(np.uint8)
        read = window[100:250].copy()
        read[[30, 80]] = (read[[30, 80]] + 1) % 4
        shifted = np.concatenate([rng.integers(0, 4, 7).astype(np.uint8),
                                  window])
        problems = [(read, window, 100, 16), None, (read, window, 100, 16),
                    (read, shifted, 107, 16)]
        results = align_problems(problems)
        assert [len(reads) for reads, *_ in sweeps] == [1]
        assert results[1] is None
        assert [result.ref_start for result in results if result] \
            == [100, 100, 107]
        for problem, result in zip(problems, results):
            if problem is not None:
                assert signature(result) == signature(lone(problem))
                assert result.cells == 150 * 33

    def test_a_shape_over_budget_is_cut_into_equal_sweeps(self, sweeps):
        rng = np.random.default_rng(4)
        window = rng.integers(0, 4, 214).astype(np.uint8)
        fit = banded.STACK_BYTE_BUDGET // dp.plane_bytes(
            150, 183, 17, 16, DEFAULT_SCHEME)
        problems = [(rng.integers(0, 4, 150).astype(np.uint8), window, 32,
                     16) for _ in range(fit + 1)]
        results = align_problems(problems)
        sizes = [len(reads) for reads, *_ in sweeps]
        assert len(sizes) == 2 and max(sizes) - min(sizes) <= 1
        assert [signature(result) for result in results] \
            == [signature(lone(problem)) for problem in problems]

    def test_none_passes_through(self, sweeps):
        assert align_problems([None, None]) == [None, None]
        assert align_problems([]) == []
        assert sweeps == []


@st.composite
def ungapped_problems(draw):
    """``(read, window, diagonal, bandwidth, scheme)`` biased to make the
    ungapped certificate fire: the read is the window on a diagonal
    ``d`` (often ``0`` or ``m - n``), exact or with one mismatch at its
    first, middle or last base; the window may be a tandem repeat (many
    perfect diagonals in the band) and either may hold an ``N``; the
    band around ``d`` may be clipped by column 0 or by column ``m``, or
    miss ``d``."""
    scheme = draw(st.sampled_from(SCHEMES))
    n = draw(st.integers(1, 40))
    m = n + draw(st.integers(0, 30))
    if draw(st.booleans()):
        unit = bases(draw, draw(st.integers(1, 4)), 4)
        window = np.resize(unit, m)
    else:
        window = bases(draw, m, 4)
    d = draw(st.sampled_from((0, m - n)) | st.integers(0, m - n))
    read = window[d:d + n].copy()
    where = draw(st.sampled_from((None, 0, n // 2, n - 1)))
    if where is not None:
        read[where] = (read[where] + 1) % 4
    if draw(st.booleans()):
        read[draw(st.integers(0, n - 1))] = N_CODE
    if draw(st.booleans()):
        window[draw(st.integers(0, m - 1))] = N_CODE
    bandwidth = draw(st.integers(1, 12))
    # Only a problem whose own diagonal passes the rule is scanned.
    diagonal = d + draw(st.just(0) | st.integers(-bandwidth - 2,
                                                 bandwidth + 2))
    return read, window, diagonal, bandwidth, scheme


def certified(problem, scheme):
    """Does :func:`align_problems` resolve ``problem`` without a sweep?"""
    with pytest.MonkeyPatch.context() as patch:
        calls = record_sweeps(patch)
        align_problems([problem], scheme)
    return not calls


class TestUngappedCertificate:
    """A problem :func:`align_problems` certifies ungapped gets exactly
    the lone sweep's result, ties and all."""

    @settings(deadline=None, max_examples=300)
    @given(ungapped_problems())
    def test_certified_equals_the_sweep(self, drawn):
        *problem, scheme = drawn
        got, = align_problems([tuple(problem)], scheme)
        assert signature(got) == signature(lone(problem, scheme))

    @pytest.mark.parametrize("case", [
        "certified", "certified int32", "leftmost of several", "N",
        "clipped at column 0", "clipped at column m", "not certified"])
    def test_the_generator_draws(self, case):
        def holds(drawn):
            read, window, diagonal, bandwidth, scheme = drawn
            problem = (read, window, diagonal, bandwidth)
            n, m = len(read), len(window)
            low = max(diagonal - bandwidth, 0)
            high = min(diagonal + bandwidth, m - n)
            perfect = [d for d in range(low, high + 1)
                       if np.array_equal(window[d:d + n], read)]
            fires = certified(problem, scheme)
            return {
                "certified": fires,
                "certified int32": fires and plane_type(
                    read, window, diagonal, bandwidth, scheme) is np.int32,
                "leftmost of several": fires and len(perfect) > 2,
                "N": fires and N_CODE in read and N_CODE in window,
                "clipped at column 0": fires and diagonal - bandwidth < 0,
                "clipped at column m": fires and diagonal + bandwidth > m - n,
                "not certified": not fires and scheme.gap_open
                + scheme.gap_extend <= scheme.match + scheme.mismatch
                and len(perfect) < 1 <= high - low,
            }[case]

        find(ungapped_problems(), holds,
             settings=settings(phases=[Phase.generate], database=None,
                               derandomize=True, max_examples=2_000))

    @pytest.mark.parametrize("where", [None, 0, 75, 149])
    @pytest.mark.parametrize("d", [0, 24, 48])
    def test_mapper_scale(self, where, d):
        """A 150-base read on diagonal ``d`` of a 198-base window, band
        16 around it: exact or one mismatch at its first, middle or last
        base; at ``d = 0`` column 0 clips the band, at ``d = m - n``
        column ``m`` does."""
        rng = np.random.default_rng(d)
        window = rng.integers(0, 4, 198).astype(np.uint8)
        read = window[d:d + 150].copy()
        if where is not None:
            read[where] = (read[where] + 1) % 4
        problem = (read, window, d, 16)
        assert certified(problem, DEFAULT_SCHEME)
        got, = align_problems([problem])
        assert signature(got) == signature(lone(problem))
        assert got.ref_start == d

    def test_a_tandem_repeat_ends_at_the_leftmost_perfect_diagonal(self):
        window = np.resize(np.array([0, 1, 2], np.uint8), 200)
        read = window[30:180].copy()
        problem = (read, window, 33, 16)  # perfect on 18, 21, ..., 48
        got, = align_problems([problem])
        assert signature(got) == signature(lone(problem)) \
            == (300, "150=", 18, 168, 150 * 33)

    def test_a_gap_cheaper_than_a_mismatch_is_never_certified(self):
        """``gap_open + gap_extend`` at most one mismatch's loss: one
        mismatch is swept (a gapped path may win), and only an exact read
        is certified."""
        rng = np.random.default_rng(2)
        window = rng.integers(0, 4, 60).astype(np.uint8)
        read = window[10:40].copy()
        for scheme in (ScoringScheme(2, 8, 0, 2), ScoringScheme(3, 2, 1, 4)):
            assert certified((read, window, 10, 4), scheme)
            edited = read.copy()
            edited[15] = (edited[15] + 1) % 4
            assert not certified((edited, window, 10, 4), scheme)
            got, = align_problems([(edited, window, 10, 4)], scheme)
            assert signature(got) \
                == signature(lone((edited, window, 10, 4), scheme))

    def test_with_no_substitution_score_every_diagonal_ties(self):
        """``match = mismatch = 0``: every ungapped diagonal scores the
        perfect 0 and any gap costs, so the band's first diagonal in the
        window wins, however many bases it mismatches."""
        rng = np.random.default_rng(3)
        window = rng.integers(0, 4, 60).astype(np.uint8)
        problem = (window[20:40].copy(), window, 20, 6)
        scheme = ScoringScheme(0, 0, 3, 1)
        assert certified(problem, scheme)
        got, = align_problems([problem], scheme)
        assert signature(got) == signature(lone(problem, scheme))
        assert (got.score, got.ref_start) == (0, 14)

    def test_exact_reads_make_no_sweep_and_walk_no_traceback(
            self, sweeps, monkeypatch):
        """The drift guard: a stack of exact reads is resolved without
        the kernel; the CIGAR is built only when read."""
        walks = []
        monkeypatch.setattr(dp, "_traceback",
                            lambda *args: walks.append(args))
        rng = np.random.default_rng(6)
        problems = []
        for start in range(8, 48, 5):
            window = rng.integers(0, 4, 198).astype(np.uint8)
            problems.append((window[start:start + 150].copy(), window,
                             start, 16))
        results = align_problems(problems)
        assert sweeps == [] and walks == []
        assert all(result._cigar is None for result in results)
        assert [(result.score, str(result.cigar), result.ref_start)
                for result in results] \
            == [(300, "150=", start) for start in range(8, 48, 5)]
        assert [result.cells for result in results] == [
            lone(problem).cells for problem in problems]
        assert walks == []


def path_in_band(result, diagonal, bandwidth):
    """Does every cell of the alignment lie inside the band?"""
    i, j = 0, result.ref_start
    for length, op in result.cigar.ops:
        for _ in range(length):
            i += op != "D"
            j += op != "I"
            if j < 1 or abs(j - i - diagonal) > bandwidth:
                return False
    return True


class TestBandedEqualsUnbandedInBand:
    @settings(deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12),
           st.integers(-3, 3), st.sampled_from(SCHEMES[:2]))
    def test_in_band_optimum_is_found(self, seed, bandwidth, jitter,
                                      scheme):
        """ROADMAP 4b: the unbanded oracle's optimum, when its path lies
        in the band, is what the banded kernel returns, tie-breaks and
        all."""
        rng = np.random.default_rng(seed)
        window = rng.integers(0, 4, 70).astype(np.uint8)
        start = int(rng.integers(5, 25))
        read = window[start:start + 40].copy()
        for _ in range(int(rng.integers(0, 3))):
            read[int(rng.integers(0, len(read)))] = rng.integers(0, 4)
        if rng.random() < 0.5:
            cut = int(rng.integers(5, 35))
            read = np.delete(read, slice(cut, cut + int(rng.integers(1, 4))))
        diagonal = start + jitter
        full = oracle.align_semiglobal(read, window, scheme)
        assume(path_in_band(full, diagonal, bandwidth))
        banded = align_banded(read, window, scheme, diagonal, bandwidth)
        assert signature(banded)[:-1] == signature(full)[:-1]


class TestValidation:
    def test_bandwidth_checked_before_empty_read(self):
        with pytest.raises(ValueError, match="bandwidth"):
            align_banded(np.zeros(0, dtype=np.uint8),
                         np.zeros(5, dtype=np.uint8), bandwidth=0)

    def test_mixed_rank_names_the_shapes(self):
        with pytest.raises(ValueError, match=r"\(4,\).*\(2, 9\)"):
            align_banded(np.zeros(4, dtype=np.uint8),
                         np.zeros((2, 9), dtype=np.uint8))

    def test_stack_sizes_must_agree(self):
        with pytest.raises(ValueError, match=r"\(3, 4\).*\(2, 9\)"):
            align_banded(np.zeros((3, 4), dtype=np.uint8),
                         np.zeros((2, 9), dtype=np.uint8))

    def test_empty_reads_in_a_stack(self):
        stack = align_banded(np.zeros((2, 0), dtype=np.uint8),
                             np.zeros((2, 5), dtype=np.uint8))
        assert [result.score for result in stack] == [0, 0]
        assert stack.cells == 0


@pytest.fixture(scope="module")
def giab_like():
    """The fixed GIAB-like regression set of ``perf/`` and the legacy
    benches: repeat-rich reference 101, donor 103, reads 200."""
    reference = generate_reference(np.random.default_rng(101),
                                   (160_000, 80_000),
                                   repeats=RepeatProfile.human_like())
    donor = plant_variants(np.random.default_rng(103), reference)
    pairs = ReadSimulator(reference, donor=donor,
                          error_model=ErrorModel.giab_like(),
                          seed=200).simulate_pairs(300)
    return reference, [(pair.read1.codes, pair.read2.codes, pair.name)
                       for pair in pairs]


def mapped(reference, pairs, **config):
    """SAM lines and statistics of one fresh mapper over ``pairs``."""
    with Mapper.from_reference(reference, **config) as mapper:
        lines = list(mapper.lines(mapper.map(pairs), format="sam",
                                  header=False))
        return lines, dataclasses.asdict(mapper.last_stats)


class TestMappingUnchanged:
    """Same SAM bytes and DP accounting with the oracle patched in at the
    one call site both mappers reach the kernel through
    (:func:`~repro.align.banded.align_problems`'s ``align_banded``)."""

    @pytest.mark.parametrize("config,count,cell_counters", [
        ({"engine": "genpair", "full_fallback": True}, 300,
         ("dp_cells_candidate", "dp_cells_full")),
        ({"engine": "mm2"}, 100, ("dp_cells_alignment",)),
    ])
    def test_engine(self, giab_like, monkeypatch, config, count,
                    cell_counters):
        reference, pairs = giab_like
        lines, stats = mapped(reference, pairs[:count], **config)
        calls = []

        def scalar(*args, **kwargs):
            calls.append(len(args[0]))
            return oracle.align_banded(*args, **kwargs)

        monkeypatch.setattr(banded, "align_banded", scalar)
        oracle_lines, oracle_stats = mapped(reference, pairs[:count],
                                            **config)
        assert calls  # the oracle ran
        assert len(lines) == 2 * count
        assert lines == oracle_lines
        assert stats == oracle_stats
        assert all(stats[counter] > 0 for counter in cell_counters)


class TestTracebacksOnDemand:
    """On the GIAB-like set the mappers walk only the tracebacks whose
    answers they print."""

    @pytest.fixture
    def tally(self, monkeypatch):
        """Tracebacks walked, CIGARs built, and of those the ones built
        from a certified result's op letters (it never had a plane)."""
        counts = {"walks": 0, "cigars": 0, "certified": 0}
        walk, encode = dp._traceback, Cigar.from_ops.__func__
        ungapped = dp.AlignmentResult._ungapped.__func__
        letters = []  # kept alive, so that ``is`` cannot meet a reused id

        def counting_walk(*args):
            counts["walks"] += 1
            return walk(*args)

        def recording(cls, score, ref_start, cells, ops):
            letters.append(ops)
            return ungapped(cls, score, ref_start, cells, ops)

        def counting_encode(cls, ops):
            counts["cigars"] += 1
            counts["certified"] += any(ops is seen for seen in letters)
            return encode(cls, ops)

        monkeypatch.setattr(dp, "_traceback", counting_walk)
        monkeypatch.setattr(dp.AlignmentResult, "_ungapped",
                            classmethod(recording))
        monkeypatch.setattr(Cigar, "from_ops", classmethod(counting_encode))
        return counts

    def test_candidate_dp_walks_two_per_placed_pair(self, giab_like, tally):
        """Each placed pair reads both winners: a swept one walks its
        traceback, a certified one builds its CIGAR from its letters."""
        reference, pairs = giab_like
        _lines, stats = mapped(reference, pairs, engine="genpair",
                               full_fallback=False)
        assert stats["light_fallback"] == 33
        assert stats["residual_fallback"] > 0
        assert tally["walks"] + tally["certified"] \
            == 2 * stats["light_fallback"]
        assert tally["walks"] > 0 < tally["certified"]

    def test_mm2_builds_a_cigar_per_mapped_read_only(self, giab_like, tally):
        reference, pairs = giab_like
        _lines, stats = mapped(reference, pairs[:100], engine="mm2")
        assert tally["cigars"] == stats["reads_mapped"] <= 2 * 100
        assert stats["mate_rescues"] > 0
