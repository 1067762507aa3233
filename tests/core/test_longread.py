"""Tests for the long-read mapping mode (§4.7)."""

from oracles import core as oracle
import numpy as np
import pytest

from repro.core import (LongReadConfig, LongReadMapper, LongReadStats,
                        resolve_reads)
from repro.genome import (ErrorModel, ReadSimulator, generate_reference,
                          random_sequence)
from repro.genome.sequence import N_CODE


def votes_of(mapper, codes):
    """One read's Location Voting, the way ``map_reads`` runs it."""
    config = mapper.config
    return mapper._vote(resolve_reads(
        mapper.seedmap, mapper._chunks(codes), config.seed_length,
        config.seeds_per_chunk))


@pytest.fixture(scope="module")
def long_mapper(plain_reference, plain_seedmap):
    return LongReadMapper(plain_reference, seedmap=plain_seedmap)


class TestLongReadMapper:
    def test_clean_long_read_maps_exactly(self, plain_reference,
                                          long_mapper):
        codes = plain_reference.fetch("chr1", 4000, 7000)
        result = long_mapper.map_read(codes, "clean")
        record, = result.records
        assert (result.name, result.engine, result.stage,
                result.joint_score) == ("clean", "longread", "mapped",
                                        record.score)
        assert record.mapped
        assert record.chromosome == "chr1"
        assert abs(record.position - 4000) <= 5
        assert record.score > 0

    def test_noisy_long_read_maps(self, plain_reference, plain_seedmap):
        sim = ReadSimulator(plain_reference,
                            error_model=ErrorModel.mason_default(0.003),
                            seed=23)
        mapper = LongReadMapper(plain_reference, seedmap=plain_seedmap)
        reads = sim.simulate_long_reads(4, length_mean=3000,
                                        length_sd=200, error_rate=0.005)
        mapped = 0
        for read in reads:
            record = mapper.map_read(read.codes, read.name).record1
            if record.mapped and \
                    abs(record.position - read.ref_start) <= 100:
                mapped += 1
        assert mapped >= 3

    def test_garbage_unmapped(self, long_mapper):
        result = long_mapper.map_read(
            random_sequence(np.random.default_rng(9), 2000), "junk")
        assert not result.mapped and result.stage == "unmapped"

    def test_stats_accumulate(self, plain_reference, plain_seedmap):
        mapper = LongReadMapper(plain_reference, seedmap=plain_seedmap)
        codes = plain_reference.fetch("chr1", 100, 1600)
        mapper.map_read(codes, "a")
        assert mapper.stats.reads_total == 1
        assert mapper.stats.mapped == 1
        assert mapper.stats.pseudo_pairs >= 8  # 1500bp -> 10 chunks
        assert mapper.stats.dp_cells > 0

    def test_pseudo_pair_distance_below_delta(self):
        config = LongReadConfig(chunk_length=150, delta=500)
        # Adjacent chunks are 150bp apart by construction.
        assert config.chunk_length < config.delta

    def test_voting_prefers_consistent_location(self, plain_reference,
                                                plain_seedmap):
        """A read spanning a duplicated region should still map where the
        majority of its chunks vote."""
        mapper = LongReadMapper(plain_reference, seedmap=plain_seedmap)
        codes = plain_reference.fetch("chr1", 10_000, 12_400)
        record = mapper.map_read(codes, "vote").record1
        assert record.mapped
        assert abs(record.position - 10_000) <= 64 + 5  # vote bin width


class TestChromosomeStart:
    """A vote bin's floor can lie in the previous chromosome's tail;
    DP must anchor inside the chromosome the read voted for."""

    @pytest.fixture(scope="class")
    def two_chromosomes(self):
        return generate_reference(np.random.default_rng(5),
                                  (20000, 20000), repeats=None)

    @pytest.mark.parametrize("chromosome,start", [
        ("chr2", 0), ("chr2", 10), ("chr2", 40), ("chr2", 5000),
        ("chr1", 0), ("chr1", 10)])
    def test_read_at_any_chromosome_start_maps(self, two_chromosomes,
                                               chromosome, start):
        mapper = LongReadMapper(two_chromosomes)
        codes = two_chromosomes.fetch(chromosome, start, start + 1500)
        result = mapper.map_read(codes, "edge")
        record = result.record1
        assert (result.stage, record.chromosome, record.position) \
            == ("mapped", chromosome, start)
        assert str(record.cigar) == "1500="


class TestWindowErrors:
    """Only an out-of-range coordinate means "no alignment here"."""

    def test_reference_error_is_no_hit(self, plain_reference, long_mapper):
        codes = plain_reference.fetch("chr1", 4000, 5000)
        assert long_mapper._dp_at(codes, 10 ** 9) is None

    def test_other_errors_propagate_out_of_map_read(
            self, plain_reference, plain_seedmap, monkeypatch):
        mapper = LongReadMapper(plain_reference, seedmap=plain_seedmap)

        def broken(*args, **kwargs):
            raise RuntimeError("coordinate table corrupt")

        monkeypatch.setattr(mapper.reference, "window", broken)
        with pytest.raises(RuntimeError, match="corrupt"):
            mapper.map_read(plain_reference.fetch("chr1", 4000, 7000),
                            "clean")


class TestVoteThresholdAndBatch:
    def test_min_votes_filters_weak_bins(self, plain_reference,
                                         plain_seedmap):
        """A threshold above every bin's votes leaves the read unmapped
        (the bins exist, but none clears the bar)."""
        codes = plain_reference.fetch("chr1", 2000, 3500)
        permissive = LongReadMapper(plain_reference,
                                    seedmap=plain_seedmap)
        assert permissive.map_read(codes, "a").mapped
        votes = votes_of(permissive, codes)
        bar = max(votes.values()) + 1
        strict = LongReadMapper(
            plain_reference, seedmap=plain_seedmap,
            config=LongReadConfig(min_votes=bar))
        record = strict.map_read(codes, "a")
        assert not record.mapped
        assert strict.stats.dp_cells == 0  # no DP attempt at all

    def test_min_votes_default_keeps_behaviour(self, plain_reference,
                                               plain_seedmap):
        default = LongReadMapper(plain_reference, seedmap=plain_seedmap)
        explicit = LongReadMapper(plain_reference, seedmap=plain_seedmap,
                                  config=LongReadConfig(min_votes=1))
        codes = plain_reference.fetch("chr1", 5000, 6800)
        rec1 = default.map_read(codes, "a").record1
        rec2 = explicit.map_read(codes, "a").record1
        assert (rec1.position, rec1.score) == (rec2.position, rec2.score)

    def test_map_reads_batch_matches_map_read(self, plain_reference,
                                              plain_seedmap):
        serial = LongReadMapper(plain_reference, seedmap=plain_seedmap)
        batched = LongReadMapper(plain_reference, seedmap=plain_seedmap)
        items = [(plain_reference.fetch("chr1", start, start + 1200),
                  f"read{start}") for start in (500, 4000, 9000)]
        expected = [serial.map_read(codes, name)
                    for codes, name in items]
        got = batched.map_reads(items)
        assert [(r.record1.position, r.joint_score) for r in got] \
            == [(r.record1.position, r.joint_score) for r in expected]
        assert batched.stats.reads_total == 3


class TestAgainstScalarOracle:
    """Chunk-wide resolution (each pseudo-pair chunk resolved once, all
    reads of an engine chunk in one probe) votes and maps exactly as the
    scalar per-pseudo-pair path in ``tests/oracles/core.py``."""

    @pytest.fixture(scope="class")
    def reads(self, small_reference):
        sim = ReadSimulator(small_reference, seed=13)
        simulated = sim.simulate_long_reads(9, length_mean=1800,
                                            length_sd=500,
                                            error_rate=0.005)
        items = [(read.codes, read.name) for read in simulated]
        # One read shorter than a chunk, one of exactly one chunk (no
        # pseudo-pair), one spanning an N.
        items.append((small_reference.fetch("chr1", 100, 220), "short"))
        items.append((small_reference.fetch("chr1", 900, 1050), "one"))
        with_n = small_reference.fetch("chr2", 3000, 4200).copy()
        with_n[170] = N_CODE
        items.append((with_n, "with_n"))
        return items

    def test_votes_match_oracle_read_by_read(self, small_reference,
                                             seedmap, reads):
        mapper = LongReadMapper(small_reference, seedmap=seedmap)
        pseudo_pairs = 0
        voted = 0
        for codes, _name in reads:
            want, pairs = oracle.longread_votes(mapper, codes)
            got = votes_of(mapper, codes)
            assert got == want
            # Same insertion order, hence the same most_common() ties.
            assert list(got) == list(want)
            pseudo_pairs += pairs
            voted += bool(want)
        assert mapper.stats.pseudo_pairs == pseudo_pairs > 50
        assert voted >= 9

    @pytest.fixture(scope="class")
    def looped(self, small_reference, seedmap, reads):
        mapper = LongReadMapper(small_reference, seedmap=seedmap)
        return ([mapper.map_read(codes, name).record1
                 for codes, name in reads], mapper.stats)

    def test_loop_maps_and_counts(self, looped, reads):
        records, stats = looped
        by_name = {record.query_name: record for record in records}
        assert not by_name["short"].mapped and not by_name["one"].mapped
        assert by_name["with_n"].mapped
        assert "X" in str(by_name["with_n"].cigar)
        assert stats.reads_total == len(reads)
        assert stats.mapped >= 9

    @pytest.mark.parametrize("chunk_size", [1, 7, 256])
    def test_chunk_size_never_changes_output(self, small_reference,
                                             seedmap, reads, looped,
                                             chunk_size, record_signature):
        want, want_stats = looped
        mapper = LongReadMapper(small_reference, seedmap=seedmap)
        got = []
        for start in range(0, len(reads), chunk_size):
            got.extend(result.record1 for result in mapper.map_reads(
                reads[start:start + chunk_size]))
        assert list(map(record_signature, got)) \
            == list(map(record_signature, want))
        assert mapper.stats == want_stats

    def test_each_chunk_resolved_once_in_one_probe(
            self, small_reference, seedmap, reads, seedmap_probes):
        mapper = LongReadMapper(small_reference, seedmap=seedmap)
        mapper.map_reads(reads)
        chunks = sum(len(codes) // mapper.config.chunk_length
                     for codes, _name in reads)
        assert seedmap_probes == [chunks]
        # The scalar path resolved both chunks of every pseudo-pair.
        assert 2 * mapper.stats.pseudo_pairs > chunks

    def test_no_votes_is_not_an_exception(self, small_reference, seedmap):
        codes = small_reference.fetch("chr1", 2000, 3500)
        mapper = LongReadMapper(small_reference, seedmap=seedmap)
        assert not votes_of(mapper, codes[:149])
        assert not votes_of(mapper, codes[:0])
        # A chunk too short to hold a seed: pseudo-pairs, but no seed.
        seedless = LongReadMapper(
            small_reference, seedmap=seedmap,
            config=LongReadConfig(chunk_length=40))
        assert not votes_of(seedless, codes)
        assert oracle.longread_votes(seedless, codes)[0] == {}
        seedless.stats = LongReadStats()
        assert not seedless.map_read(codes, "seedless").mapped
        assert seedless.stats == LongReadStats(reads_total=1,
                                               pseudo_pairs=36)
        assert seedless.map_reads([]) == []
