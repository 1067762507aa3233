"""The stacked numpy Gotoh kernel against the scalar oracle.

``oracle.py`` holds the pure-Python loops the kernel replaced; every
observable of a result — score, CIGAR, spans, ``cells`` — must be equal,
ties included.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import align as oracle
from repro.align import (ScoringScheme, align_banded, align_local,
                         align_semiglobal, banded, stack_problems)
from repro.api import Mapper
from repro.core import pipeline as pipeline_module
from repro.genome import (ErrorModel, ReadSimulator, generate_reference,
                          plant_variants)
from repro.genome.reference import RepeatProfile
from repro.mapper import mm2 as mm2_module

#: The default scheme, the tie schemes (``gap_open = 0`` makes opening and
#: extending equal, ``gap_extend = 0`` makes every gap length equal, all
#: zeros makes everything equal) and two asymmetric ones.
SCHEMES = (ScoringScheme(), ScoringScheme(2, 8, 0, 2),
           ScoringScheme(2, 8, 12, 0), ScoringScheme(1, 1, 0, 0),
           ScoringScheme(0, 0, 0, 0), ScoringScheme(1, 3, 5, 1),
           ScoringScheme(3, 2, 1, 4))


def signature(result):
    return (result.score, str(result.cigar), result.ref_start,
            result.ref_end, result.read_start, result.read_end,
            result.cells)


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
    @given(problems())
    def test_semiglobal(self, problem):
        reads, windows, _diagonal, _bandwidth, scheme = problem
        got = align_semiglobal(reads[0], windows[0], scheme)
        want = oracle.align_semiglobal(reads[0], windows[0], scheme)
        assert signature(got) == signature(want)

    @settings(deadline=None)
    @given(problems())
    def test_local(self, problem):
        reads, windows, _diagonal, _bandwidth, scheme = problem
        got = align_local(reads[0], windows[0], scheme)
        want = oracle.align_local(reads[0], windows[0], scheme)
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


@st.composite
def problem_lists(draw):
    """Up to 40 ``(read, window, diagonal, bandwidth)`` problems of up to
    four shapes, ``None``s among them."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(0, 20),
                                     st.integers(-4, 12),
                                     st.integers(1, 8)),
                           min_size=1, max_size=4))
    chosen = draw(st.lists(st.one_of(st.none(), st.sampled_from(shapes)),
                           max_size=40))
    return [None if shape is None else
            (bases(draw, shape[0], 2), bases(draw, shape[1], 2), *shape[2:])
            for shape in chosen]


class TestStackProblems:
    @settings(deadline=None, max_examples=100)
    @given(problem_lists(), st.integers(1, 1500))
    def test_sweeps_partition_the_problems_within_the_budget(
            self, problems, budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(banded, "STACK_CELL_BUDGET", budget)
            sweeps = stack_problems(problems)
        assert sorted(k for members, *_ in sweeps for k in members) \
            == [k for k, problem in enumerate(problems)
                if problem is not None]
        for members, reads, windows, diagonal, bandwidth in sweeps:
            stack = align_banded(reads, windows, diagonal=diagonal,
                                 bandwidth=bandwidth)
            assert len(members) == 1 or stack.cells <= budget
            for k, result in zip(members, stack):
                read, window, own_diagonal, own_bandwidth = problems[k]
                assert signature(result) == signature(align_banded(
                    read, window, diagonal=own_diagonal,
                    bandwidth=own_bandwidth))

    def test_a_shape_over_budget_is_cut_into_equal_sweeps(self):
        read, window = np.zeros(150, np.uint8), np.zeros(214, np.uint8)
        fit = banded.STACK_CELL_BUDGET // (150 * 33)
        sweeps = stack_problems([(read, window, 32, 16)] * (fit + 1))
        sizes = [len(members) for members, *_ in sweeps]
        assert len(sizes) == 2 and max(sizes) - min(sizes) <= 1
        assert [k for members, *_ in sweeps for k in members] \
            == list(range(fit + 1))


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
    """Same SAM bytes and DP accounting with the oracle patched in."""

    @pytest.mark.parametrize("config,count,cell_counters", [
        ({"engine": "genpair", "full_fallback": True}, 300,
         ("dp_cells_candidate", "dp_cells_full")),
        ({"engine": "mm2"}, 100, ("dp_cells_alignment",)),
    ])
    def test_engine(self, giab_like, monkeypatch, config, count,
                    cell_counters):
        reference, pairs = giab_like
        lines, stats = mapped(reference, pairs[:count], **config)
        monkeypatch.setattr(pipeline_module, "align_banded",
                            oracle.align_banded)
        monkeypatch.setattr(mm2_module, "align_banded",
                            oracle.align_banded)
        oracle_lines, oracle_stats = mapped(reference, pairs[:count],
                                            **config)
        assert len(lines) == 2 * count
        assert lines == oracle_lines
        assert stats == oracle_stats
        assert all(stats[counter] > 0 for counter in cell_counters)
