"""The seeded mate rescue against the whole-window oracle.

``oracles/align.py`` holds the rescue the q-gram bound replaced: one band
over the whole insert window.  For every mate the seeded rescue must
return exactly the oracle's placement — score, CIGAR, reference span,
chromosome, strand — or ``None`` with it, whichever route (no DP, the
shared narrow band, the widened band, the whole window) settles it.  The
named cases below each sit on one edge of the bound: drop a diagonal of
drift, demand one vote more, skip the widening round or let a band reach
diagonals the whole window does not hold, and one of them fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import align as oracle
from repro.genome import ReferenceGenome, reverse_complement
from repro.mapper import MinimizerIndex, Mm2LikeMapper
from repro.mapper.mm2 import RESCUE_BAND, _Placement, _wave_votes

READ = 150


def signature(placement):
    if placement is None:
        return None
    alignment = placement.alignment
    return (placement.score, str(alignment.cigar), alignment.ref_start,
            alignment.ref_end, placement.position, placement.chromosome,
            placement.strand, placement.oriented.tobytes())


def mapper_over(chromosomes):
    reference = ReferenceGenome(chromosomes)
    return Mm2LikeMapper(reference, index=MinimizerIndex.build(reference))


def anchor_at(chromosome, position, strand):
    return _Placement(score=READ * 2, chromosome=chromosome,
                      position=position, strand=strand, alignment=None,
                      oriented=None)


def check(mapper, jobs):
    """The wave's placements, after asserting they are the oracle's."""
    got = mapper._rescue(jobs)
    assert list(map(signature, got)) == [
        signature(oracle.rescue_mate(mapper, anchor, mate))
        for anchor, mate in jobs]
    return got


def votes_within(mate, window, diagonals):
    """Exact 7-mer matches of ``mate`` in ``window`` whose diagonal
    (window position - mate position) lies in ``diagonals``."""
    seen = {}
    for start in range(len(window) - 6):
        seen.setdefault(window[start:start + 7].tobytes(), []).append(start)
    return sum(1 for start in range(len(mate) - 6)
               for where in seen.get(mate[start:start + 7].tobytes(), ())
               if where - start in diagonals)


@st.composite
def waves(draw):
    """A two-chromosome reference and one to three rescue jobs on it.

    Each mate is cut from the insert window of its anchor (either
    strand, anywhere on either chromosome, so windows clamp at both
    ends) or is random; it may hang off the chromosome's start or end,
    carry mismatches, one insertion or deletion run of up to 60 bases
    (inside the drift bound at the score floor), ``N`` bases, and be
    shorter than a q-gram.  A second copy of the template may be
    planted nearby — inside or just outside the band of the first — and
    tandem repeats or a two-letter alphabet make shifted copies tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = draw(st.sampled_from((4, 4, 4, 2)))
    lengths = {"chr1": draw(st.integers(200, 2500)),
               "chr2": draw(st.integers(200, 1200))}
    codes = {name: rng.integers(0, alphabet, size=size, dtype=np.uint8)
             for name, size in lengths.items()}
    if draw(st.booleans()):
        unit = rng.integers(0, 4, size=draw(st.integers(1, 12)),
                            dtype=np.uint8)
        start = draw(st.integers(0, lengths["chr1"] - 1))
        stretch = codes["chr1"][start:start + draw(st.integers(20, 800))]
        stretch[:] = np.resize(unit, stretch.size)
    jobs = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(("chr1", "chr1", "chr2")))
        chromosome, size = codes[name], lengths[name]
        strand = draw(st.sampled_from("+-"))
        position = draw(st.integers(0, size - 1))
        length = draw(st.sampled_from((READ, READ, READ, 100, 30, 8, 7, 3)))
        low = max(0, position if strand == "+" else position - 1000)
        high = min(size, position + length
                   + (1000 if strand == "+" else length))
        slack = max(0, high - low - length)
        at = low + draw(st.integers(-25, slack + 25))
        copies = draw(st.sampled_from((0, 1, 1, 2)))
        if copies == 2:
            shift = draw(st.sampled_from(
                (draw(st.integers(1, RESCUE_BAND)),
                 draw(st.integers(RESCUE_BAND + 1, 3 * RESCUE_BAND)),
                 draw(st.integers(1, 600)))))
            there = at + draw(st.sampled_from((-1, 1))) * shift
            if min(at, there) >= 0 and max(at, there) + length <= size:
                chromosome[there:there + length] = \
                    chromosome[at:at + length].copy()
        if copies:
            # Cut after planting; bases past either end are random.
            template = rng.integers(0, alphabet, size=length + 60,
                                    dtype=np.uint8)
            inside = chromosome[max(at, 0):at + length + 60]
            template[max(-at, 0):max(-at, 0) + inside.size] = inside
        else:
            template = rng.integers(0, 4, size=length + 60, dtype=np.uint8)
        run = draw(st.integers(1, 60))
        split = draw(st.integers(0, length))
        kind = draw(st.sampled_from(("none", "none", "insertion",
                                     "deletion")))
        if kind == "insertion":
            template = np.concatenate([
                template[:split],
                rng.integers(0, 4, size=run, dtype=np.uint8),
                template[split:]])
        elif kind == "deletion":
            template = np.concatenate([template[:split],
                                       template[split + run:]])
        mate = template[:length].copy()
        for where in draw(st.lists(st.integers(0, length - 1),
                                   max_size=25)):
            mate[where] = (mate[where] + 1) % 4
        for where in draw(st.lists(st.integers(0, length - 1),
                                   max_size=2)):
            mate[where] = 4
        if strand == "+":  # the mate is sought on the other strand
            mate = reverse_complement(mate)
        jobs.append((anchor_at(name, position, strand), mate))
    return codes, jobs


class TestWaveVotes:
    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 60),
                              st.integers(0, 2**32 - 1)),
                    min_size=1, max_size=5))
    def test_one_table_votes_like_one_per_rescue(self, shapes):
        """A wave's one composite-key table gives every rescue the votes
        of its own mate against its own window, k-mers with an ``N``
        left out, whatever the lengths (shorter than a q-gram too)."""
        problems = []
        for n, m, seed in shapes:
            rng = np.random.default_rng(seed)
            mate, window = (np.where(rng.random(size) < 0.04, 4,
                                     rng.integers(0, 2, size))
                            .astype(np.uint8) for size in (n, m))
            problems.append((mate, window))
        for (mate, window), (votes, valid) in zip(problems,
                                                  _wave_votes(problems)):
            n, m = len(mate), len(window)
            kmers = [start for start in range(n - 6)
                     if 4 not in mate[start:start + 7]]
            want = np.zeros(n + m + 1, dtype=np.int64)
            for start in kmers:
                for where in range(m - 6):
                    if np.array_equal(window[where:where + 7],
                                      mate[start:start + 7]):
                        want[where - start + n] += 1
            assert valid == len(kmers)
            assert votes.tolist() == want.tolist()


class TestSeededRescueEqualsOracle:
    @settings(deadline=None)
    @given(waves())
    def test_every_route_returns_the_whole_window_result(self, wave):
        codes, jobs = wave
        mapper = mapper_over(codes)
        check(mapper, jobs)
        assert mapper.stats.rescue_attempts == len(jobs)


class TestBoundEdges:
    """Planted cases on the edges of the bound, each with its route."""

    @pytest.fixture()
    def genome(self):
        return np.random.default_rng(61).integers(0, 4, size=3_000,
                                                  dtype=np.uint8)

    def test_no_hot_window_means_no_dp(self, genome):
        mapper = mapper_over({"chr1": genome})
        mate = np.random.default_rng(62).integers(0, 4, size=READ,
                                                  dtype=np.uint8)
        assert check(mapper, [(anchor_at("chr1", 500, "+"), mate)]) \
            == [None]
        assert (mapper.stats.rescue_attempts,
                mapper.stats.dp_cells_alignment) == (1, 0)

    def test_floor_alignment_holding_exactly_t_votes(self, genome):
        """18 mismatches, one every 7 bases, break 126 of the 144
        7-mers: the mate scores exactly the 40% floor (120) with exactly
        ``t(120) = 18`` votes, so one vote more would call it hopeless."""
        start = 950
        mate = genome[start:start + READ].copy()
        mate[6:126:7] = (mate[6:126:7] + 1) % 4
        window = genome[500:500 + READ + 1000]
        assert votes_within(mate, window,
                            range(start - 500 - 84, start - 500 + 85)) == 18
        mapper = mapper_over({"chr1": genome})
        placed, = check(mapper, [(anchor_at("chr1", 500, "+"),
                                  reverse_complement(mate))])
        assert (placed.score, placed.position) == (120, start)

    def test_tie_beyond_the_band_settles_in_the_widened_band(self, genome):
        """Two copies score 260: X (four mismatches, 116 votes on one
        diagonal) draws the first band; Y, 300 bases to its left, holds
        the mate with a 14-base deletion — drift exactly ``D(260) = 14``
        — and its 138 votes only fill a window of all ``D + 1``
        diagonals.  Y ends first, so Y is the result, found by widening
        the band once rather than by the whole window."""
        template = genome[2_000:2_000 + READ].copy()
        copy_x = template.copy()
        copy_x[[20, 50, 80, 110]] = (copy_x[[20, 50, 80, 110]] + 1) % 4
        copy_y = np.concatenate([template[:75], genome[2_500:2_514],
                                 template[75:]])
        genome[700:700 + copy_y.size] = copy_y
        genome[1_000:1_000 + READ] = copy_x
        mapper = mapper_over({"chr1": genome})
        placed, = check(mapper, [(anchor_at("chr1", 500, "+"),
                                  reverse_complement(template))])
        assert (placed.score, placed.position) == (260, 700)
        assert placed.alignment.cigar.count("D") == 14
        assert mapper.stats.rescue_whole_window == 0
        assert mapper.stats.dp_cells_alignment < READ * (READ + 1_000) / 2

    def test_mate_hanging_off_the_chromosome_start(self, genome):
        """The mate's first 20 bases lie before the chromosome: the
        whole-window band reaches only 8 diagonals below the window, so
        no band may reach further and find the hanging alignment."""
        mate = np.concatenate([
            np.random.default_rng(63).integers(0, 4, size=20,
                                               dtype=np.uint8),
            genome[:READ - 20]])
        mapper = mapper_over({"chr1": genome})
        check(mapper, [(anchor_at("chr1", 150, "-"), mate)])

    def test_short_mates_share_the_wave_with_long_ones(self, genome):
        mapper = mapper_over({"chr1": genome})
        jobs = [(anchor_at("chr1", 400, "-"), genome[300:300 + length])
                for length in (READ, 3, 10, 7, 8, READ)]
        check(mapper, jobs)
        assert mapper.stats.rescue_attempts == len(jobs)
        assert mapper.stats.rescue_whole_window >= 1
