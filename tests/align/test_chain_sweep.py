"""The segment-stacked chaining sweep against the per-anchor loop.

``repro.align.chain_anchors`` sweeps anchor columns into chain columns;
the scalar loop it replaced is ``chain_anchors`` of
``tests/oracles/align.py``.  Everything must be *equal*, not close: each
chain's problem, rank, float score with ``==`` and diagonal, and
``cells``.
"""

from unittest import mock

from oracles import align as align_oracle
from oracles.align import Anchor
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align import AnchorColumns, chain_anchors, chaining
from repro.genome import ErrorModel, ReadSimulator, generate_reference, \
    reverse_complement
from repro.genome.reference import RepeatProfile
from repro.mapper import Mm2LikeMapper


def columns(problems):
    """Stack per-problem anchor lists into one ``AnchorColumns``."""
    flat = [(a.ref_pos, a.read_pos, a.length, number)
            for number, anchors in enumerate(problems) for a in anchors]
    table = np.array(flat, dtype=np.int64).reshape(-1, 4)
    return AnchorColumns(table[:, 0], table[:, 1], table[:, 2],
                         table[:, 3], len(problems))


def rows(chains):
    """A sweep's chain columns as ``(problem, rank, score, diagonal)``
    rows, and its ``cells``."""
    assert chains.score.dtype == np.float64
    return list(zip(chains.problem.tolist(), chains.rank.tolist(),
                    chains.score.tolist(), chains.diagonal.tolist())), \
        chains.cells


def projected(results):
    """The oracle's per-problem results as :func:`rows` says a sweep's."""
    return [(number, rank, chain.score, chain.diagonal)
            for number, result in enumerate(results)
            for rank, chain in enumerate(result.chains)], \
        sum(result.cells for result in results)


def oracle_rows(anchors, **options):
    """One problem through the scalar loop, as :func:`rows`."""
    return projected([align_oracle.chain_anchors(anchors, **options)])


@st.composite
def anchor_problems(draw):
    """Many stacked problems of clustered anchors.

    Reference gaps come from a menu holding 0 (duplicate ``ref_pos``),
    small steps (tandem clusters, equal-score ties on a lattice),
    exactly ``max_gap`` and ``max_gap + 1`` (the segment cut) and a far
    jump; read positions follow the diagonal with a small jitter or are
    free; lengths are fixed or variable; anchors arrive shuffled.
    ``max_lookback`` is small so that problems fall on both sides of it,
    0 (no arcs at all) or longer than any segment.  Problems may be
    empty, a lone anchor, or a shifted copy of an earlier one — equal
    segment lengths across problems, so the longest-first row order
    meets ties.
    """
    max_gap = draw(st.integers(2, 40))
    max_lookback = draw(st.sampled_from([0, 1, 2, 3, 5, 25, 40]))
    gap_menu = st.sampled_from([0, 1, 1, 2, 3, 7, max_gap - 1, max_gap,
                                max_gap + 1, 3 * max_gap])
    lengths = draw(st.sampled_from([st.just(15), st.just(3),
                                    st.integers(1, 20)]))
    problems = []
    for _ in range(draw(st.integers(1, 10))):
        if problems and draw(st.booleans()):
            shift = draw(st.integers(1, 10_000))
            problems.append([Anchor(a.ref_pos + shift, a.read_pos, a.length)
                             for a in draw(st.sampled_from(problems))])
            continue
        count = draw(st.one_of(st.sampled_from([0, 1]),
                               st.integers(0, 30)))
        gaps = draw(st.lists(gap_menu, min_size=count, max_size=count))
        ref_positions = np.cumsum(gaps, dtype=np.int64) + 1000
        diagonal = draw(st.booleans())
        anchors = []
        for ref_pos in ref_positions.tolist():
            if diagonal:
                read_pos = ref_pos - 1000 + draw(st.integers(-2, 2))
            else:
                read_pos = draw(st.integers(0, 3 * max_gap))
            anchors.append(Anchor(ref_pos, read_pos, draw(lengths)))
        problems.append(draw(st.permutations(anchors)))
    min_score = draw(st.sampled_from([0.0, 4.0, 20.0]))
    max_chains = draw(st.sampled_from([1, 2, 3, 8]))
    return problems, dict(max_gap=max_gap, max_lookback=max_lookback,
                          min_score=min_score, max_chains=max_chains)


@st.composite
def tied_problems(draw):
    """Problems built to tie at extraction.

    A *tree* is a root anchor and pairs of children at mirror-image
    offsets from it — reference and read gaps ``(g, g + d)`` and ``(g +
    d, g)`` — so both children score the same off the root and neither
    is an arc of the other: one root, several tails at its best score
    (an exact duplicate child adds one more).  A problem holds shifted
    copies of one tree — different roots whose chains tie — spaced past
    ``max_gap`` on the reference (separate segments) or inside it, down
    to a base apart, so that the copies' anchors interleave in sorted
    order, each copy keeping some of the children (so that one root's
    tied tails can straddle another's lone best).  Copies on one read
    span may chain into each other; copies
    further apart on the read than ``max_gap`` never do, and their
    chains tie exactly.  Anchors arrive shuffled.
    """
    max_gap = 60
    children = []
    for _ in range(draw(st.integers(1, 3))):
        gap, d = draw(st.integers(16, 40)), draw(st.integers(0, 3))
        children += [(gap, gap + d), (gap + d, gap)]
    if draw(st.booleans()):
        children.append(children[0])
    tree = [(0, 0)] + children
    problems = []
    for _ in range(draw(st.integers(1, 5))):
        spacing = draw(st.sampled_from([max_gap + 1, 45, 2, 1]))
        apart = draw(st.sampled_from([0, 4 * max_gap]))
        copies = draw(st.integers(1, 4))
        anchors = []
        for copy in range(copies):
            kept = [tree[0]] + [child for child in tree[1:]
                                if draw(st.booleans())]
            anchors += [Anchor(1000 + copy * spacing + ref,
                               copy * apart + read, 15)
                        for ref, read in kept]
        problems.append(draw(st.permutations(anchors)))
    return problems, dict(max_gap=max_gap,
                          min_score=draw(st.sampled_from([0.0, 20.0])),
                          max_chains=draw(st.sampled_from([1, 2, 3, 8])))


#: Plane budgets for the sweep: the real one (a test's problems fit one
#: plane) and ones that cut them into many, down to a row per plane.
BUDGETS = [chaining.SWEEP_CELL_BUDGET, 1, 8, 60]


class TestAgainstScalarOracle:
    @settings(deadline=None)
    @given(anchor_problems(), st.sampled_from(BUDGETS))
    def test_stacked_problems_match_oracle(self, drawn, budget):
        problems, options = drawn
        expected = [align_oracle.chain_anchors(anchors, **options)
                    for anchors in problems]
        with mock.patch.object(chaining, "SWEEP_CELL_BUDGET", budget):
            got = chain_anchors(columns(problems), **options)
            # Each problem alone: stacking changes nothing.
            alone = [chain_anchors(columns([anchors]), **options)
                     for anchors in problems]
        assert rows(got) == projected(expected)
        for chains, reference in zip(alone, expected):
            assert rows(chains) == projected([reference])

    @settings(deadline=None)
    @given(tied_problems())
    def test_tied_tails_match_oracle(self, drawn):
        """Equal scores under one root and across roots: each root keeps
        its lowest-index best tail, and equal chains rank in sorted-anchor
        order."""
        problems, options = drawn
        expected = [align_oracle.chain_anchors(anchors, **options)
                    for anchors in problems]
        assert rows(chain_anchors(columns(problems), **options)) \
            == projected(expected)
        for anchors, reference in zip(problems, expected):
            assert rows(chain_anchors(columns([anchors]), **options)) \
                == projected([reference])

    def test_a_lone_best_between_two_tied_tails(self):
        """Root ``A`` has two tails at its best score, and root ``D``'s
        lone tail, at that score too, sorts between them: ``A``'s chain
        ranks first because its *first* tied tail does."""
        anchors = [Anchor(1000, 0, 15), Anchor(1001, 200, 15),
                   Anchor(1030, 32, 15), Anchor(1031, 232, 15),
                   Anchor(1032, 30, 15)]
        for max_chains in (1, 2):
            options = dict(max_gap=60, min_score=0.0, max_chains=max_chains)
            got = rows(chain_anchors(columns([anchors]), **options))
            assert got == oracle_rows(anchors, **options)
            assert got[0][0][3] == 1000

    def test_zero_lookback_leaves_every_anchor_alone(self):
        """``max_lookback=0`` used to raise in the sweep's ``argmax``
        (an empty row of candidates): no anchor looks back, so each is
        a chain of its own and nothing is charged."""
        anchors = [Anchor(100 + 20 * i, 20 * i, 15) for i in range(4)]
        result = chain_anchors(columns([anchors]), max_lookback=0,
                               min_score=1.0)
        assert rows(result) == oracle_rows(anchors, max_lookback=0,
                                           min_score=1.0)
        assert result.cells == 0
        assert result.score.tolist() == [15.0] * 4

    @pytest.mark.parametrize("read_base", [0, 3 * 10 ** 9])
    def test_positions_past_int32(self, read_base):
        """Reference and read positions past 2**31 go into the int32
        planes relative to their segment and to the lowest read
        position."""
        anchors = [Anchor(5 * 10 ** 9 + 7 * (i % 30),
                          read_base + 5 * (i // 2), 15) for i in range(60)]
        assert rows(chain_anchors(columns([anchors]))) \
            == oracle_rows(anchors)

    def test_gap_past_int32_is_no_arc(self):
        """A read gap of 2**32 + 10 would read as 10 in int32: such
        reads switch the planes to int64, and the gap stays no arc."""
        anchors = [Anchor(1000, 0, 15), Anchor(1010, 2 ** 32 + 10, 15)]
        result = chain_anchors(columns([anchors]), min_score=1.0)
        assert rows(result) == oracle_rows(anchors, min_score=1.0)
        assert result.score.size == 2

    def test_default_options_cross_the_lookback(self):
        """60 tandem anchors (period 7 on the reference, 5 on the read)
        under the defaults: more anchors than ``max_lookback`` in one
        segment, ties everywhere."""
        anchors = [Anchor(5000 + 7 * (i % 30), 5 * (i // 2), 15)
                   for i in range(60)]
        result = chain_anchors(columns([anchors]))
        assert rows(result) == oracle_rows(anchors)
        assert result.cells == 300 + 35 * 25

    def test_cut_at_exactly_max_gap_plus_one(self):
        near = [Anchor(100, 0, 15), Anchor(100 + 50, 50, 15)]
        far = [Anchor(100, 0, 15), Anchor(100 + 51, 51, 15)]
        for anchors, chains in ((near, 1), (far, 2)):
            result = chain_anchors(columns([anchors]), max_gap=50,
                                   min_score=1.0)
            assert rows(result) == oracle_rows(anchors, max_gap=50,
                                               min_score=1.0)
            assert result.score.size == chains and result.cells == 1

    def test_no_anchors_at_all(self):
        assert rows(chain_anchors(columns([[], [], []]))) == ([], 0) \
            == projected([align_oracle.chain_anchors([])] * 3)
        assert rows(chain_anchors(columns([]))) == ([], 0)


class TestAnchorOrder:
    @settings(deadline=None)
    @given(st.integers(1, 6), st.lists(st.tuples(
        st.integers(0, 5), st.integers(0, 4), st.integers(0, 3)),
        min_size=1, max_size=60), st.sampled_from((0, 3 * 10 ** 9)))
    def test_two_stable_sorts_are_the_lexsort(self, problems, drawn, base):
        """Anchors in drawn order (not by ``read_pos``), with ties in
        every key and whole duplicates, sort exactly as the three-key
        ``np.lexsort`` does, positions past int32 included."""
        table = np.array([(base + 7 * ref, read, problem % problems)
                          for problem, ref, read in drawn],
                         dtype=np.int64)
        ref, read, problem = table.T
        anchors = AnchorColumns(ref, read, np.full(ref.size, 15), problem,
                                problems)
        assert chaining._sorted_order(anchors).tolist() \
            == np.lexsort((read, ref, problem)).tolist()


@pytest.fixture(scope="module")
def repeat_mapper():
    reference = generate_reference(np.random.default_rng(41), (60_000,),
                                   repeats=RepeatProfile.human_like())
    return Mm2LikeMapper(reference)


@pytest.fixture(scope="module")
def repeat_pairs(repeat_mapper):
    """GIAB-like pairs on the human-like reference."""
    return ReadSimulator(repeat_mapper.reference,
                         error_model=ErrorModel.giab_like(),
                         seed=42).simulate_pairs(40)


@pytest.mark.parametrize("budget", [chaining.SWEEP_CELL_BUDGET, 500])
def test_real_anchor_sets_match_oracle(repeat_mapper, repeat_pairs, budget,
                                       monkeypatch):
    """The mapper's own anchors — GIAB-like reads on a human-like
    reference: heavy-tailed problems, hundreds of anchors in the repeat
    ones — chunk-wide against one oracle call per read and strand, in
    one plane and in dozens."""
    oriented = [strand for pair in repeat_pairs
                for codes in (pair.read1.codes, pair.read2.codes)
                for strand in (codes, reverse_complement(codes))]
    anchors = repeat_mapper._anchors(oriented)
    assert anchors.problems == 160
    sizes = np.bincount(anchors.problem, minlength=160)
    assert sizes.max() > 100 and sizes.min() == 0  # both tails present
    monkeypatch.setattr(chaining, "SWEEP_CELL_BUDGET", budget)
    got = chain_anchors(anchors, max_gap=500, min_score=20.0)
    expected = []
    for number in range(anchors.problems):
        mine = anchors.problem == number
        expected.append(align_oracle.chain_anchors(
            [Anchor(*row) for row in zip(anchors.ref_pos[mine].tolist(),
                                         anchors.read_pos[mine].tolist(),
                                         anchors.length[mine].tolist())],
            max_gap=500, min_score=20.0))
    assert rows(got) == projected(expected)
