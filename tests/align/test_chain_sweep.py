"""The segment-stacked chaining sweep against the per-anchor loop.

``repro.align.chain_anchors`` sweeps anchor columns; the scalar loop it
replaced is ``chain_anchors`` of ``tests/oracles/align.py``.  Everything
must be *equal*, not close: chains (anchors, order), float scores with
``==`` and ``cells``.
"""

from oracles import align as align_oracle
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align import Anchor, AnchorColumns, chain_anchors
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


@st.composite
def anchor_problems(draw):
    """Several stacked problems (some empty) of clustered anchors.

    Reference gaps come from a menu holding 0 (duplicate ``ref_pos``),
    small steps (tandem clusters, equal-score ties on a lattice),
    exactly ``max_gap`` and ``max_gap + 1`` (the segment cut) and a far
    jump; read positions follow the diagonal with a small jitter or are
    free; lengths are fixed or variable; anchors arrive shuffled.
    ``max_lookback`` is small so that problems fall on both sides of it.
    """
    max_gap = draw(st.integers(2, 40))
    max_lookback = draw(st.sampled_from([1, 2, 3, 5, 25]))
    gap_menu = st.sampled_from([0, 1, 1, 2, 3, 7, max_gap - 1, max_gap,
                                max_gap + 1, 3 * max_gap])
    lengths = draw(st.sampled_from([st.just(15), st.just(3),
                                    st.integers(1, 20)]))
    problems = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.integers(0, 30))
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
    max_chains = draw(st.sampled_from([1, 2, 8]))
    return problems, dict(max_gap=max_gap, max_lookback=max_lookback,
                          min_score=min_score, max_chains=max_chains)


class TestAgainstScalarOracle:
    @settings(deadline=None)
    @given(anchor_problems())
    def test_stacked_problems_match_oracle(self, drawn):
        problems, options = drawn
        expected = [align_oracle.chain_anchors(anchors, **options)
                    for anchors in problems]
        got = chain_anchors(columns(problems), **options)
        assert len(got) == len(problems)
        for result, reference in zip(got, expected):
            assert result.cells == reference.cells
            assert result.chains == reference.chains
            for chain, other in zip(result.chains, reference.chains):
                assert type(chain.score) is float
                assert chain.score == other.score
        # A Sequence[Anchor] is one problem through the same sweep.
        for anchors, reference in zip(problems, expected):
            assert chain_anchors(anchors, **options) == reference

    def test_default_options_cross_the_lookback(self):
        """60 tandem anchors (period 7 on the reference, 5 on the read)
        under the defaults: more anchors than ``max_lookback`` in one
        segment, ties everywhere."""
        anchors = [Anchor(5000 + 7 * (i % 30), 5 * (i // 2), 15)
                   for i in range(60)]
        assert chain_anchors(anchors) == align_oracle.chain_anchors(anchors)
        assert chain_anchors(anchors).cells == 300 + 35 * 25

    def test_cut_at_exactly_max_gap_plus_one(self):
        near = [Anchor(100, 0, 15), Anchor(100 + 50, 50, 15)]
        far = [Anchor(100, 0, 15), Anchor(100 + 51, 51, 15)]
        for anchors, chains in ((near, 1), (far, 2)):
            result = chain_anchors(anchors, max_gap=50, min_score=1.0)
            assert result == align_oracle.chain_anchors(
                anchors, max_gap=50, min_score=1.0)
            assert len(result.chains) == chains and result.cells == 1

    def test_no_anchors_at_all(self):
        assert chain_anchors(columns([[], [], []])) == [
            align_oracle.chain_anchors([])] * 3
        assert chain_anchors(columns([])) == []


@pytest.fixture(scope="module")
def repeat_mapper():
    reference = generate_reference(np.random.default_rng(41), (60_000,),
                                   repeats=RepeatProfile.human_like())
    return Mm2LikeMapper(reference)


def test_real_anchor_sets_match_oracle(repeat_mapper):
    """The mapper's own anchors — GIAB-like reads on a human-like
    reference: heavy-tailed problems, hundreds of anchors in the repeat
    ones — chunk-wide against one oracle call per read and strand."""
    pairs = ReadSimulator(repeat_mapper.reference,
                          error_model=ErrorModel.giab_like(),
                          seed=42).simulate_pairs(40)
    oriented = [strand for pair in pairs
                for codes in (pair.read1.codes, pair.read2.codes)
                for strand in (codes, reverse_complement(codes))]
    anchors = repeat_mapper._anchors(oriented)
    assert anchors.problems == 160
    sizes = np.bincount(anchors.problem, minlength=160)
    assert sizes.max() > 100 and sizes.min() == 0  # both tails present
    got = chain_anchors(anchors, max_gap=500, min_score=20.0)
    for number, result in enumerate(got):
        mine = anchors.problem == number
        reference = align_oracle.chain_anchors(
            [Anchor(*row) for row in zip(anchors.ref_pos[mine].tolist(),
                                         anchors.read_pos[mine].tolist(),
                                         anchors.length[mine].tolist())],
            max_gap=500, min_score=20.0)
        assert result == reference
