"""Unit tests for repro.genome.reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.genome import window_oracle

from repro.genome.reference import (ReferenceError, ReferenceGenome,
                                    RepeatProfile, generate_reference)
from repro.genome.sequence import encode, random_sequence


def make_genome():
    return ReferenceGenome({"chrA": encode("ACGTACGTAC"),
                            "chrB": encode("TTTTT")})


class TestReferenceGenome:
    def test_names_and_lengths(self):
        genome = make_genome()
        assert genome.names == ("chrA", "chrB")
        assert genome.length("chrA") == 10
        assert genome.total_length == 15

    def test_unknown_chromosome(self):
        with pytest.raises(ReferenceError):
            make_genome().length("chrZ")

    def test_linear_round_trip(self):
        genome = make_genome()
        for name in genome.names:
            for pos in (0, 3, genome.length(name) - 1):
                linear = genome.linear_offset(name) + pos
                assert genome.window(linear, 0, 0, 0)[1:3] == (name, pos)

    def test_linear_offsets_disjoint(self):
        genome = make_genome()
        assert genome.linear_offset("chrA") == 0
        assert genome.linear_offset("chrB") == 10

    def test_linear_out_of_range(self):
        genome = make_genome()
        assert genome.window(15, 0, 0, 0) is None
        assert genome.window(-1, 0, 0, 0) is None

    def test_fetch_window(self):
        genome = make_genome()
        window = genome.fetch("chrA", 2, 6)
        assert window.tolist() == encode("GTAC").tolist()

    def test_fetch_bounds_checked(self):
        genome = make_genome()
        with pytest.raises(ReferenceError):
            genome.fetch("chrA", 5, 11)
        with pytest.raises(ReferenceError):
            genome.fetch("chrA", -1, 3)

    def test_sequence(self):
        assert make_genome().sequence("chrB") == "TTTTT"


class TestWindow:
    """:meth:`ReferenceGenome.window`: the one place a seed-layer linear
    coordinate becomes a chromosome and bases around it."""

    def test_start_before_chromosome_stays_on_it(self):
        # A 6-base read implied at linear 8 = chrA:8 overhangs chrA's end
        # by 4; its middle (11) is on chrB, where it starts 2 early.
        window, chromosome, start, offset = make_genome().window(
            8, 6, before=1, after=1)
        assert (chromosome, start, offset) == ("chrB", 0, -2)
        assert window.tolist() == encode("TTTTT").tolist()

    def test_span_overhanging_the_end_stays_on_it(self):
        window, chromosome, start, offset = make_genome().window(
            6, 6, before=2, after=2)
        assert (chromosome, start, offset) == ("chrA", 4, 2)
        assert window.tolist() == encode("ACGTAC").tolist()

    def test_middle_outside_the_genome_is_none(self):
        genome = make_genome()
        assert genome.window(-4, 6, 2, 2) is None
        assert genome.window(13, 6, 2, 2) is None
        assert genome.window(10 ** 9, 150, 24, 24) is None

    def test_window_shorter_than_asked_is_none(self):
        genome = make_genome()
        assert genome.window(10, 4, 3, 3, min_length=5) is not None
        assert genome.window(10, 4, 3, 3, min_length=6) is None

    def test_named_chromosome_takes_a_position(self):
        genome = make_genome()
        window, chromosome, start, offset = genome.window(
            1, 2, before=0, after=10, chromosome="chrB")
        assert (chromosome, start, offset) == ("chrB", 1, 0)
        assert window.tolist() == encode("TTTT").tolist()
        # Clamped to the named chromosome, never the neighbour's bases.
        window, _, start, offset = genome.window(
            1, 2, before=10, after=0, chromosome="chrB")
        assert (window.tolist(), start, offset) \
            == (encode("TTT").tolist(), 0, 1)
        assert genome.window(40, 2, 3, 3, chromosome="chrB") is None
        with pytest.raises(ReferenceError):
            genome.window(0, 2, 3, 3, chromosome="chrZ")

    @given(lengths=st.lists(st.integers(1, 60), min_size=3, max_size=3),
           start=st.integers(-80, 260), read_length=st.integers(0, 40),
           before=st.integers(0, 30), after=st.integers(0, 30),
           min_length=st.integers(0, 50), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_oracle(self, lengths, start, read_length,
                                   before, after, min_length, seed):
        """Three chromosomes, some shorter than the read: window,
        chromosome, start and offset are the oracle's; the stated
        invariants hold; ``read_boundaries`` names the same
        chromosome."""
        rng = np.random.default_rng(seed)
        genome = ReferenceGenome({
            f"c{number}": random_sequence(rng, length)
            for number, length in enumerate(lengths)})
        found = genome.window(start, read_length, before, after,
                              min_length=min_length)
        expected = window_oracle(genome, start, read_length, before,
                                 after, min_length)
        if expected is None:
            assert found is None
        else:
            window, chromosome, window_start, offset = found
            assert (window.tolist(), chromosome, window_start, offset) \
                == expected
        unbounded = genome.window(start, read_length, before, after)
        middle = start + read_length // 2
        assert (unbounded is None) \
            == (not 0 <= middle < genome.total_length)
        if unbounded is None:
            return
        window, chromosome, window_start, offset = unbounded
        codes = genome.chromosomes[chromosome]
        # Inside one chromosome ...
        assert 0 <= window_start <= window_start + len(window) <= len(codes)
        assert np.array_equal(window,
                              codes[window_start:window_start + len(window)])
        # ... holding all of the read span that chromosome has ...
        local = start - genome.linear_offset(chromosome)
        assert window_start <= max(0, local)
        assert min(len(codes), local + read_length) \
            <= window_start + len(window)
        # ... with the read placed consistently in it.
        assert window_start + offset == local
        # The filter's boundaries put the start on the same chromosome.
        index = np.searchsorted(genome.read_boundaries(read_length),
                                start, side="right") - 1
        assert genome.names[index] == chromosome


class TestGeneration:
    def test_lengths_respected(self):
        genome = generate_reference(np.random.default_rng(0),
                                    (5000, 3000), repeats=None)
        assert genome.length("chr1") == 5000
        assert genome.length("chr2") == 3000

    def test_deterministic_given_seed(self):
        a = generate_reference(np.random.default_rng(5), (2000,))
        b = generate_reference(np.random.default_rng(5), (2000,))
        assert np.array_equal(a.fetch("chr1", 0, 2000),
                              b.fetch("chr1", 0, 2000))

    def test_invalid_length_rejected(self):
        with pytest.raises(ReferenceError):
            generate_reference(np.random.default_rng(0), (0,))

    def test_repeats_raise_duplicate_seed_rate(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        plain = generate_reference(rng1, (60_000,), repeats=None)
        repeated = generate_reference(rng2, (60_000,),
                                      repeats=RepeatProfile.human_like())

        def duplicate_fraction(genome):
            from repro.hashing import hash_reference_windows
            hashes = hash_reference_windows(
                genome.fetch("chr1", 0, genome.length("chr1")), 50)
            _, counts = np.unique(hashes, return_counts=True)
            return (counts > 1).sum() / len(counts)

        assert duplicate_fraction(repeated) > \
            duplicate_fraction(plain) * 5

    def test_human_like_profile_mean_multiplicity(self):
        genome = generate_reference(np.random.default_rng(3), (150_000,),
                                    repeats=RepeatProfile.human_like())
        from repro.core import SeedMap
        seedmap = SeedMap.build(genome)
        # Per-position multiplicity (what a random error-free read seed
        # sees) should land in the high-single-digit range (Obs 2 ~9.6).
        total = seedmap.stats.stored_locations
        weighted = 0
        for _, start, end in seedmap.iter_ranges():
            size = end - start
            weighted += size * size
        assert 4.0 < weighted / total < 25.0
