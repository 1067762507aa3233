"""Tests for Paired-Adjacency Filtering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import core as oracle
from repro.core import filter_adjacent
from repro.core.pairfilter import filter_rows


def arr(*values):
    return np.array(values, dtype=np.int64)


class TestFilterAdjacent:
    def test_simple_pass(self):
        result = filter_adjacent(arr(1000), arr(1200), delta=500)
        assert result.pairs == ((1000, 1200),)
        assert result.passed

    def test_distance_above_delta_rejected(self):
        result = filter_adjacent(arr(1000), arr(1600), delta=500)
        assert not result.passed

    def test_wrong_order_rejected(self):
        # read2 candidate far upstream of read1: not a proper FR pair.
        result = filter_adjacent(arr(5000), arr(1000), delta=500)
        assert not result.passed

    def test_dovetail_tolerated(self):
        result = filter_adjacent(arr(1000), arr(990), delta=500,
                                 allow_dovetail=30)
        assert result.passed

    def test_dovetail_beyond_tolerance_rejected(self):
        result = filter_adjacent(arr(1000), arr(900), delta=500,
                                 allow_dovetail=30)
        assert not result.passed

    def test_multiple_candidates_all_found(self):
        result = filter_adjacent(arr(1000, 8000), arr(1150, 8300, 20_000),
                                 delta=500)
        assert set(result.pairs) == {(1000, 1150), (8000, 8300)}

    def test_one_read1_to_many_read2(self):
        result = filter_adjacent(arr(1000), arr(1100, 1200, 1400),
                                 delta=500)
        assert set(result.pairs) == {(1000, 1100), (1000, 1200),
                                     (1000, 1400)}

    def test_empty_inputs(self):
        assert not filter_adjacent(arr(), arr(1000)).passed
        assert not filter_adjacent(arr(1000), arr()).passed
        assert not filter_adjacent(arr(), arr()).passed

    def test_max_pairs_cap(self):
        many1 = np.arange(0, 3000, 100, dtype=np.int64)
        many2 = np.arange(50, 3050, 100, dtype=np.int64)
        result = filter_adjacent(many1, many2, delta=500, max_pairs=10)
        assert len(result.pairs) == 10

    def test_iterations_counted(self):
        result = filter_adjacent(arr(1000, 2000, 3000),
                                 arr(1100, 2100, 3100), delta=500)
        assert result.iterations >= 3

    def test_iterations_scale_with_list_length(self):
        """Comparator work grows with candidate list sizes (§7.2)."""
        small = filter_adjacent(arr(1000), arr(1100), delta=500)
        big = filter_adjacent(np.arange(0, 100_000, 1000, dtype=np.int64),
                              np.arange(500, 100_500, 1000,
                                        dtype=np.int64), delta=100)
        assert big.iterations > small.iterations * 10


class TestIterationAccounting:
    """The emit scan must not re-count the element the outer two-pointer
    step already compared (it used to, inflating the §7.2 sizing input)."""

    def test_single_emit_costs_one_comparison(self):
        result = filter_adjacent(arr(1000), arr(1200), delta=500)
        assert result.pairs == ((1000, 1200),)
        assert result.iterations == 1

    def test_one_to_many_counts_extra_scans_only(self):
        # Outer comparison at (1000, 1100) = 1, then two further scan
        # comparisons at 1200 and 1400; the scan's first element is the
        # one the outer step just compared.
        result = filter_adjacent(arr(1000), arr(1100, 1200, 1400),
                                 delta=500)
        assert len(result.pairs) == 3
        assert result.iterations == 3

    def test_two_pointer_advance_counts(self):
        # (1000,5000): gap>delta, advance i (1 iteration); (4800,5000):
        # emit (1 iteration), no extra in-range scan elements.
        result = filter_adjacent(arr(1000, 4800), arr(5000), delta=500)
        assert result.pairs == ((4800, 5000),)
        assert result.iterations == 2

    def test_no_match_pure_pointer_walk(self):
        result = filter_adjacent(arr(1000, 2000), arr(9000, 9500),
                                 delta=100)
        assert not result.passed
        assert result.iterations == 2


class TestChromosomeBoundaries:
    def test_cross_boundary_candidate_rejected(self):
        # Chromosome 2 starts at linear 1000: positions 990 and 1010 are
        # 20 apart in linear space but on different chromosomes.
        boundaries = np.array([0, 1000], dtype=np.int64)
        result = filter_adjacent(arr(990), arr(1010), delta=500,
                                 boundaries=boundaries)
        assert not result.passed

    def test_same_chromosome_candidate_kept(self):
        boundaries = np.array([0, 1000], dtype=np.int64)
        result = filter_adjacent(arr(1010), arr(1200), delta=500,
                                 boundaries=boundaries)
        assert result.pairs == ((1010, 1200),)

    def test_mixed_candidates_filtered_individually(self):
        boundaries = np.array([0, 1000], dtype=np.int64)
        result = filter_adjacent(arr(900), arr(950, 1010), delta=500,
                                 boundaries=boundaries)
        assert result.pairs == ((900, 950),)

    def test_without_boundaries_cross_pair_survives(self):
        # Documents the raw linear-distance semantics the fix guards.
        result = filter_adjacent(arr(990), arr(1010), delta=500)
        assert result.passed


@st.composite
def chunks(draw):
    """``(candidates, bounds, pairs, options)``: the four sorted
    candidate lists of each pair in ``QueryColumns`` layout (fr read 1,
    fr read 2, rf read 1, rf read 2), with empty lists, lists of one,
    duplicate starts, read-2 starts at the ``allow_dovetail`` and
    ``delta`` edges of read-1 ones, chromosome boundaries among the
    candidates (moved by a per-pair shift, or not) and a ``max_pairs``
    small enough to cut a scan short."""
    delta = draw(st.integers(0, 60))
    dovetail = draw(st.integers(0, 20))
    boundaries = draw(st.one_of(st.none(), st.lists(
        st.integers(0, 300), min_size=1, max_size=4).map(
            lambda edges: np.array(sorted(set(edges)), dtype=np.int64))))
    near = st.sampled_from((-dovetail - 1, -dovetail, 0, 1, delta,
                            delta + 1))
    lists = []
    for _pair in range(draw(st.integers(1, 5))):
        for _orientation in range(2):
            read1 = draw(st.lists(st.integers(0, 300), max_size=6))
            read2 = [start + draw(near) for start in read1
                     if draw(st.booleans())]
            read2 += draw(st.lists(st.integers(-20, 320), max_size=6))
            for values in (read1, read2):
                if values and draw(st.booleans()):
                    values.append(draw(st.sampled_from(values)))
            lists += [sorted(read1), sorted(read2)]
    candidates = np.array([value for values in lists for value in values],
                          dtype=np.int64)
    bounds = np.cumsum([0] + [len(values) for values in lists])
    pairs = len(lists) // 4
    shifts = None
    if boundaries is not None and draw(st.booleans()):
        shifts = np.array(draw(st.lists(st.integers(-10, 40),
                                        min_size=pairs, max_size=pairs)))
    options = dict(delta=delta, allow_dovetail=dovetail,
                   max_pairs=draw(st.integers(1, 8)),
                   boundaries=boundaries, shifts=shifts)
    return candidates, bounds, pairs, options


class TestAgainstTheWalk:
    """``filter_rows`` against the two-pointer comparator walk of
    ``oracles/core.py``, list pair by list pair: the joint candidates in
    walk order and the comparator cycles."""

    @settings(deadline=None)
    @given(chunks())
    def test_chunk_equals_the_walk(self, chunk):
        candidates, bounds, pairs, options = chunk
        shifts, boundaries = options.pop("shifts"), options["boundaries"]
        for orientation in range(2):
            rows = 4 * np.arange(pairs) + 2 * orientation
            joint = filter_rows(candidates, bounds, rows, shifts=shifts,
                                **options)
            for k, row in enumerate(rows.tolist()):
                walked = dict(options)
                if shifts is not None:
                    walked["boundaries"] = boundaries - shifts[k]
                want = oracle.filter_walk(
                    candidates[bounds[row]:bounds[row + 1]],
                    candidates[bounds[row + 1]:bounds[row + 2]], **walked)
                got = slice(joint.bounds[k], joint.bounds[k + 1])
                assert tuple(zip(joint.first[got].tolist(),
                                 joint.second[got].tolist())) == want.pairs
                assert joint.iterations[k] == want.iterations
                assert filter_adjacent(
                    candidates[bounds[row]:bounds[row + 1]],
                    candidates[bounds[row + 1]:bounds[row + 2]],
                    **walked) == want

    def test_a_chunk_without_candidates(self):
        joint = filter_rows(np.zeros(0, dtype=np.int64), np.zeros(9),
                            np.array([0, 4]))
        assert joint.first.size == joint.second.size == 0
        assert joint.bounds.tolist() == [0, 0, 0]
        assert joint.iterations.tolist() == [0, 0]

    def test_max_pairs_must_be_positive(self):
        with pytest.raises(ValueError, match="max_pairs"):
            filter_adjacent(arr(1000), arr(1200), max_pairs=0)
