"""The chunk dataflow against the scalar oracle (``oracles/core.py``).

Two contracts: ``resolve_reads``'s ``QueryColumns`` hold, read for read
and field for field — by index, slice or iteration — what per-seed
hashing + ``SeedMap.query`` + a per-read ``np.unique`` merge return;
and whatever the chunk size —
including ``map_pair``'s chunk of one — results and ``PipelineStats``
equal the oracle's queries fed one pair at a time through the same
per-pair decision.
"""

from oracles import core as oracle
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (GenPairPipeline, QueryColumns, pair_role_codes,
                        resolve_reads)
from repro.genome import ErrorModel, ReadSimulator, reverse_complement


def as_items(pairs):
    return [(pair.read1.codes, pair.read2.codes, pair.name)
            for pair in pairs]


@pytest.fixture(scope="module")
def giab_items(small_reference, donor):
    """The 500-pair GIAB-like set of the equivalence tests."""
    simulator = ReadSimulator(small_reference, donor=donor,
                              error_model=ErrorModel.giab_like(), seed=71)
    return as_items(simulator.simulate_pairs(500))


@pytest.fixture(scope="module")
def clean_items(clean_pairs):
    return as_items(clean_pairs)


@pytest.fixture(scope="module")
def unequal_items(plain_reference):
    """Unequal read lengths, both fragment orientations, and reads
    shorter than one seed (no offsets, no Seed Table access)."""
    # 140bp keeps the shorter read above the light-alignment quality
    # threshold (perfect 280 >= 276) while exercising unequal lengths.
    read1 = plain_reference.fetch("chr1", 5000, 5150)
    read2 = reverse_complement(plain_reference.fetch("chr1", 5240, 5380))
    return [(read1, read2, "a"),
            (reverse_complement(read2), reverse_complement(read1), "b"),
            (read1, read1[:40], "c"),
            (read2[:30], read1, "d"),
            (read1[:20], read2[:49], "e")]


def assert_same_queries(got, want):
    assert len(got) == len(want)
    for have, expect in zip(got, want):
        assert np.array_equal(have.candidates, expect.candidates)
        assert have.candidates.dtype == expect.candidates.dtype
        assert have.seed_hits == expect.seed_hits
        assert have.locations_fetched == expect.locations_fetched
        assert have.seed_table_accesses == expect.seed_table_accesses
        assert have.traffic_bytes == expect.traffic_bytes


def assert_same_columns(got, want, slices):
    """``got`` (``QueryColumns``) against the oracle's list: its layout,
    then every row by iteration, by index (negative ones too) and every
    ``(start, stop)`` of ``slices`` as a slice — itself a
    ``QueryColumns`` that slices again."""
    assert isinstance(got, QueryColumns)
    count = len(want)
    assert got.bounds.size == count + 1
    assert np.all(np.diff(got.bounds) >= 0)
    for name in ("bounds", "seed_hits", "locations_fetched",
                 "seed_table_accesses"):
        assert getattr(got, name).dtype == np.int64
    assert_same_queries(got, want)
    assert_same_queries([got[index] for index in range(count)], want)
    assert_same_queries([got[index - count] for index in range(count)],
                        want)
    for start, stop in slices:
        part = got[start:stop]
        assert isinstance(part, QueryColumns)
        assert_same_queries(part, want[start:stop])
        assert_same_queries(part[1:], want[start:stop][1:])
    for index in (count, -count - 1):
        with pytest.raises(IndexError):
            got[index]
    with pytest.raises(ValueError):
        got[::2]


def role_codes(items):
    """What ``_map_chunk`` hands the resolver: four reads per pair."""
    return [codes for read1, read2, _ in items
            for codes in pair_role_codes(read1, read2)]


def both(seedmap, reads, seed_length=50, seeds_per_read=3):
    return (resolve_reads(seedmap, reads, seed_length, seeds_per_read),
            oracle.resolve_reads(seedmap, reads, seed_length,
                                 seeds_per_read))


class TestResolveReads:
    def test_giab_like_set(self, seedmap, giab_items):
        assert_same_queries(*both(seedmap, role_codes(giab_items)))

    def test_clean_set(self, plain_seedmap, clean_items):
        got, want = both(plain_seedmap, role_codes(clean_items))
        assert_same_queries(got, want)
        # An error-free pair hits with all three seeds in its true
        # orientation: the comparison is not between empty results.
        assert any(result.seed_hits == 3 for result in got)

    def test_unequal_and_short_reads(self, plain_seedmap, unequal_items):
        got, want = both(plain_seedmap, role_codes(unequal_items))
        assert_same_queries(got, want)
        # Pair "c": read 2 is 40bp — fr role 2 and rf role 1 carry no
        # seed, so no Seed Table access is charged for them.
        accesses = [result.seed_table_accesses for result in got[8:12]]
        assert accesses == [3, 0, 0, 3]
        # Pair "e": no read reaches one seed.
        assert all(result.seed_table_accesses == 0
                   and result.candidates.size == 0 for result in got[16:])

    def test_chunk_of_only_short_reads(self, plain_seedmap, unequal_items):
        assert_same_queries(*both(plain_seedmap,
                                  role_codes(unequal_items[4:])))

    def test_empty_input(self, plain_seedmap):
        got, want = both(plain_seedmap, [])
        assert want == []
        assert len(got) == 0 and list(got) == []
        assert got.bounds.tolist() == [0]
        assert got.candidates.size == 0
        assert_same_columns(got, want, [(0, 0), (-1, 1)])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_read_lists_match_oracle(self, plain_reference,
                                            plain_seedmap, data):
        """Mixed lengths 0..400 (empty reads, reads shorter than a seed),
        reads drawn from the reference (so seeds hit) with a few bases
        flipped and the occasional N (code 4); the columns are read by
        iteration, index and slice."""
        chrom_len = plain_reference.length("chr1")
        reads = []
        for _ in range(data.draw(st.integers(0, 12), label="reads")):
            length = data.draw(st.integers(0, 400), label="length")
            start = data.draw(st.integers(0, chrom_len - length),
                              label="start")
            codes = plain_reference.fetch("chr1", start,
                                          start + length).copy()
            for position in data.draw(
                    st.lists(st.integers(0, max(0, length - 1)),
                             max_size=3), label="edits"):
                if length:
                    codes[position] = data.draw(st.integers(0, 4),
                                                label="base")
            reads.append(codes)
        seed_length = data.draw(st.sampled_from([50, 50, 32]),
                                label="seed_length")
        seeds_per_read = data.draw(st.integers(1, 4), label="seeds")
        bound = len(reads) + 2
        slices = data.draw(st.lists(st.tuples(st.integers(-bound, bound),
                                              st.integers(-bound, bound)),
                                    max_size=4), label="slices")
        got, want = both(plain_seedmap, reads, seed_length, seeds_per_read)
        assert_same_columns(got, want, slices)


class TestOneProbePerChunk:
    """Every engine's reads enter through ``resolve_reads``.  GenPair
    makes one ``query_hash_groups`` call per chunk for the ``fr`` roles
    of every pair (two per pair) and, only when ``fr`` left ``k`` pairs
    without a joint candidate, one more for their ``2k`` ``rf`` roles."""

    def test_genpair_chunk(self, plain_reference, plain_seedmap,
                           clean_items, seedmap_probes):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        pipeline.map_pairs(clean_items[:10], chunk_size=4)
        assert seedmap_probes == [8, 8, 4]

    def test_rf_probe_holds_only_the_pairs_fr_left(
            self, plain_reference, plain_seedmap, clean_items,
            seedmap_probes):
        # A pair with its reads swapped is a reverse fragment: fr finds
        # no joint candidate for it, rf places it.
        swapped = {1, 2, 9}
        items = [(read2, read1, name) if k in swapped
                 else (read1, read2, name)
                 for k, (read1, read2, name) in enumerate(clean_items[:10])]
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        results = pipeline.map_pairs(items, chunk_size=4)
        assert seedmap_probes == [8, 4, 8, 4, 2]
        assert [k for k, result in enumerate(results)
                if result.orientation == "rf"] == sorted(swapped)
        assert pipeline.stats.light_mapped == len(items)


class TestNoQueryRowsWhileMapping:
    """The decision loops read the chunk's ``QueryColumns`` in place:
    mapping builds no ``QueryResult`` row."""

    @pytest.fixture()
    def rows_built(self, monkeypatch):
        import repro.core.query as query

        built = []
        real = query.QueryResult.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(query.QueryResult, "__init__", counting)
        return built

    def test_clean_and_giab_like_chunks(self, plain_reference,
                                        plain_seedmap, small_reference,
                                        seedmap, clean_items, giab_items,
                                        rows_built):
        from repro.core import LongReadMapper

        clean = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        clean.map_pairs(clean_items)
        giab = GenPairPipeline(small_reference, seedmap=seedmap)
        giab.map_pairs(giab_items[:256])
        LongReadMapper(plain_reference, seedmap=plain_seedmap).map_reads(
            [(plain_reference.fetch("chr1", 4000, 7000), "long")])
        assert clean.stats.light_mapped == clean.stats.pairs_total
        assert giab.stats.light_fallback and giab.stats.seedmap_fallback
        assert rows_built == []
        # The counter counts: reading one row builds one.
        resolve_reads(plain_seedmap, [clean_items[0][0]], 50)[0]
        assert len(rows_built) == 1


class TestScalarPathLeftSrc:
    """The per-seed path exists in ``tests/`` only: nothing can select
    it, because it cannot be imported from the package."""

    @pytest.mark.parametrize("module", ["repro.hashing.xxhash32",
                                        "repro.mapper.profiler",
                                        "repro.filters", "repro.analysis",
                                        "repro.core.executor"])
    def test_modules_are_gone(self, module):
        import importlib
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize("package, name", [
        ("repro.core", "partition_read"), ("repro.core", "query_read"),
        ("repro.core", "Seed"), ("repro.hashing", "hash_seed"),
        ("repro.hashing", "hash_seeds"), ("repro.hashing", "xxhash32"),
        ("repro.mapper", "StageTimer"), ("repro.mapper", "STAGES"),
        ("repro.core", "StreamExecutor"),
        ("repro.core", "DEFAULT_INFLIGHT_PER_WORKER"),
        ("repro.genome", "read_ahead")])
    def test_names_are_gone(self, package, name):
        import importlib
        module = importlib.import_module(package)
        assert not hasattr(module, name)
        assert name not in getattr(module, "__all__", ())


class TestOraclePartition:
    """The role rows the oracle seeds, orientation by orientation."""

    def test_orientations_and_roles(self):
        rng = np.random.default_rng(6)
        read1 = rng.integers(0, 4, size=150, dtype=np.uint8)
        read2 = rng.integers(0, 4, size=150, dtype=np.uint8)
        fr1, fr2, rf1, rf2 = pair_role_codes(read1, read2)
        rc1, rc2 = reverse_complement(read1), reverse_complement(read2)
        for role, want in ((fr1, read1), (fr2, rc2), (rf1, read2),
                           (rf2, rc1)):
            assert np.array_equal(role, want)
            seeds = oracle.partition_read(role, 50)
            assert len(seeds) == 3
            assert np.array_equal(seeds[0].codes, want[:50])


class TestChunkSizeEquivalence:
    @pytest.fixture(scope="class")
    def giab_want(self, small_reference, seedmap, giab_items,
                  result_signature):
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        results = oracle.map_pairs(pipeline, giab_items)
        return list(map(result_signature, results)), pipeline.stats

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 256])
    def test_map_pairs_matches_oracle(self, small_reference, seedmap,
                                      giab_items, giab_want, chunk_size,
                                      result_signature):
        want, want_stats = giab_want
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        got = pipeline.map_pairs(giab_items, chunk_size=chunk_size)
        assert list(map(result_signature, got)) == want
        assert pipeline.stats == want_stats
        # The set exercises every arc, not just the light-aligned one.
        assert want_stats.light_mapped and want_stats.light_fallback

    def test_map_pair_loop_matches_oracle(self, small_reference, seedmap,
                                          giab_items, giab_want,
                                          result_signature):
        want, want_stats = giab_want
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        got = [pipeline.map_pair(read1, read2, name)
               for read1, read2, name in giab_items]
        assert list(map(result_signature, got)) == want
        assert pipeline.stats == want_stats

    @pytest.mark.parametrize("chunk_size", [1, 2, 256])
    def test_clean_and_unequal_pairs(self, plain_reference, plain_seedmap,
                                     clean_items, unequal_items,
                                     chunk_size, result_signature):
        items = clean_items[:30] + unequal_items
        scalar = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        want = oracle.map_pairs(scalar, items)
        chunked = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        got = chunked.map_pairs(items, chunk_size=chunk_size)
        assert list(map(result_signature, got)) \
            == list(map(result_signature, want))
        assert chunked.stats == scalar.stats


class TestCandidateDpWaves:
    """Candidate DP is chunk-wide: the pairs light alignment leaves meet
    in one :func:`~repro.align.banded.align_problems` call (both reads at
    every candidate), one kernel sweep per cut shape.  Read 2's cells
    are charged only where read 1 survived: ``TestCandidateDpCells`` in
    ``test_pipeline_edges.py`` and the work ledger pin that."""

    def test_one_sweep_per_shape_and_wave(self, small_reference, seedmap,
                                          giab_items, banded_calls,
                                          result_signature):
        items = giab_items[:64]
        alone = GenPairPipeline(small_reference, seedmap=seedmap)
        want = list(map(result_signature,
                        alone.map_pairs(items, chunk_size=1)))
        pair_calls = len(banded_calls)
        banded_calls.clear()

        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        waves = []
        real = pipeline._dp_at

        def wave(problems):
            before = len(banded_calls)
            hits = real(problems)
            waves.append(banded_calls[before:])
            return hits

        pipeline._dp_at = wave
        got = list(map(result_signature,
                       pipeline.map_pairs(items, chunk_size=64)))
        assert pipeline.stats.light_fallback > 5
        assert got == want
        assert pipeline.stats.dp_cells_candidate == \
            alone.stats.dp_cells_candidate
        assert len(waves) == 1  # one call for the chunk
        shapes = [shape for shape, _size in waves[0]]
        assert len(set(shapes)) == len(shapes)  # one sweep a shape
        assert None not in [size for _shape, size in waves[0]]
        assert len(banded_calls) < pair_calls / 3


class TestLightKernelInPipeline:
    """The run-table light-alignment kernel under the whole pipeline: a
    GIAB-like chunk, fallback on, mapped with the scalar aligner swapped
    in on ``pipeline.light_aligner`` must not show in any result or
    counter."""

    def test_scalar_aligner_never_shows(self, small_reference, seedmap,
                                        giab_items, result_signature):
        from repro.mapper import MinimizerIndex, Mm2LikeMapper

        index = MinimizerIndex.build(small_reference)

        def run(scalar):
            pipeline = GenPairPipeline(
                small_reference, seedmap=seedmap,
                fallback=Mm2LikeMapper(small_reference, index=index))
            if scalar:
                kernel = pipeline.light_aligner
                pipeline.light_aligner = oracle.ScalarLightAligner(
                    kernel.scheme, kernel.max_edits, kernel.threshold)
            results = pipeline.map_pairs(giab_items[:256], chunk_size=256)
            return list(map(result_signature, results)), pipeline.stats

        got, want = run(scalar=False), run(scalar=True)
        assert got == want
        stats = want[1]
        # Non-exact light hits, light misses and every later arc occur.
        assert stats.exact_pairs < stats.light_mapped
        assert stats.light_fallback
        assert (stats.seedmap_fallback + stats.filter_fallback
                + stats.residual_fallback)


class TestFallbackSeam:
    """The chunk's residue goes to the fallback mapper in one
    ``map_pairs`` call; the oracle enters it pair by pair.  Results and
    ``PipelineStats`` — ``dp_cells_full`` included — must not show which."""

    @pytest.fixture(scope="class")
    def world(self, small_reference, giab_items):
        """GIAB-like pairs (light, candidate-DP and fallback-placed)
        with unplaceable ones spread among them: random sequence (no
        anchor, no cell) and random sequence around a 40 bp reference
        stub (chained, aligned, rejected)."""
        from repro.genome import random_sequence
        from repro.mapper import MinimizerIndex

        rng = np.random.default_rng(83)
        items = list(giab_items[:160])
        for number in range(6):
            start = 3000 + 5000 * number
            stub1 = small_reference.fetch("chr1", start, start + 40)
            stub2 = small_reference.fetch("chr1", start + 300, start + 340)
            items.insert(25 * number + 3, (
                np.concatenate([stub1, random_sequence(rng, 110)]),
                np.concatenate([random_sequence(rng, 110), stub2]),
                f"stub{number}"))
            items.insert(25 * number + 11, (random_sequence(rng, 150),
                                            random_sequence(rng, 150),
                                            f"junk{number}"))
        return items, MinimizerIndex.build(small_reference)

    @staticmethod
    def pipeline(reference, seedmap, index):
        from repro.mapper import Mm2LikeMapper

        return GenPairPipeline(reference, seedmap=seedmap,
                               fallback=Mm2LikeMapper(reference,
                                                      index=index))

    @pytest.fixture(scope="class")
    def want(self, small_reference, seedmap, world, result_signature):
        items, index = world
        pipeline = self.pipeline(small_reference, seedmap, index)
        results = oracle.map_pairs(pipeline, items)
        stages = {result.stage for result in results}
        assert stages == {"light", "dp_candidate", "full_dp", "unmapped"}
        assert {result.engine for result in results} == {"genpair"}
        assert pipeline.stats.unmapped == 12
        assert pipeline.stats.dp_cells_full \
            == (pipeline.fallback.stats.dp_cells_chaining
                + pipeline.fallback.stats.dp_cells_alignment)
        return list(map(result_signature, results)), pipeline.stats

    @pytest.mark.parametrize("chunk_size", [1, 7, 256])
    def test_chunk_size_never_shows(self, small_reference, seedmap, world,
                                    want, chunk_size, result_signature):
        items, index = world
        pipeline = self.pipeline(small_reference, seedmap, index)
        got = pipeline.map_pairs(items, chunk_size=chunk_size)
        assert (list(map(result_signature, got)), pipeline.stats) == want

    def test_one_fallback_call_per_chunk(self, small_reference, seedmap,
                                         world, want):
        items, index = world
        pipeline = self.pipeline(small_reference, seedmap, index)
        calls = []
        real = pipeline.fallback.map_pairs

        def counting(residue):
            calls.append(len(residue))
            return real(residue)

        pipeline.fallback.map_pairs = counting
        pipeline.map_pairs(items, chunk_size=64)
        stats = want[1]
        assert len(calls) == 3  # 172 pairs in chunks of 64
        assert sum(calls) == (stats.seedmap_fallback
                              + stats.filter_fallback
                              + stats.residual_fallback) > 12
