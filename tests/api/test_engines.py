"""The engine-polymorphic facade: engines, formats, sub-configs, edges."""

import os

import numpy as np
import pytest

from repro.api import (ENGINES, OUTPUT_FORMATS, Mapper, MappingConfig,
                       MappingConfigError, RegistryError, output_format)
from repro.core import (GenPairPipeline, LongReadConfig, LongReadStats,
                        PipelineStats)
from repro.genome import MappingResult, reverse_complement, write_fastq
from repro.mapper import MapperConfig, MapperStats


@pytest.fixture(scope="module")
def mapper(small_reference, seedmap):
    with Mapper(small_reference, seedmap,
                config=MappingConfig(full_fallback=False)) as facade:
        yield facade


@pytest.fixture(scope="module")
def pairs(simulator):
    return simulator.simulate_pairs(25)


@pytest.fixture(scope="module")
def long_reads(simulator):
    return simulator.simulate_long_reads(4, length_mean=1200,
                                         length_sd=150)


class TestPolymorphicSurface:
    def test_all_engines_same_surface(self, mapper, pairs, long_reads):
        for engine, items in (("genpair", pairs), ("mm2", pairs),
                              ("longread", long_reads)):
            results = mapper.map(items, engine=engine)
            assert len(results) == len(items)
            assert all(isinstance(r, MappingResult) for r in results)
            assert all(r.engine == engine for r in results)

    def test_registry_lists_three_engines(self):
        assert sorted(ENGINES) == ["genpair", "longread", "mm2"]
        assert sorted(OUTPUT_FORMATS) == ["jsonl", "paf", "sam"]

    def test_genpair_results_match_direct_pipeline(
            self, mapper, small_reference, seedmap, pairs):
        direct = GenPairPipeline(small_reference, seedmap=seedmap)
        expected = [line for result in direct.map_pairs(pairs)
                    for line in (result.record1.to_sam_line(),
                                 result.record2.to_sam_line())]
        results = mapper.map(pairs, engine="genpair")
        got = list(mapper.lines(results, format="sam", header=False))
        assert got == expected

    def test_engine_instances_built_lazily_and_reused(
            self, small_reference, seedmap, pairs):
        with Mapper(small_reference, seedmap,
                    config=MappingConfig(full_fallback=False)) as facade:
            assert facade._engines == {}
            first = facade.engine("mm2")
            facade.map(pairs[:3], engine="mm2")
            assert facade.engine("mm2") is first

    def test_one_minimizer_index_per_facade(self, small_reference,
                                            seedmap, pairs, monkeypatch):
        """A daemon-style facade (fallback on, both paired engines
        used) seeds the traditional path from one index: built by the
        first pair that needs it, not before, and never again."""
        from repro.genome import random_sequence
        from repro.mapper import MinimizerIndex

        builds = []
        real = MinimizerIndex.build.__func__

        def counting(cls, *args, **kwargs):
            builds.append(1)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(MinimizerIndex, "build", classmethod(counting))
        rng = np.random.default_rng(4)
        junk = (random_sequence(rng, 150), random_sequence(rng, 150), "j")
        with Mapper(small_reference, seedmap,
                    config=MappingConfig()) as facade:
            facade.warm_up()
            assert builds == []  # no pool to fork: nothing to pre-build
            facade.map([junk], engine="genpair")
            assert builds == [1]
            facade.map(pairs[:3], engine="mm2")
            facade.map(pairs[:3] + [junk], engine="genpair")
            assert builds == [1]
            fallback = facade.pipeline.fallback
            assert fallback.index is facade.engine("mm2").core.index
            assert fallback.index is facade.minimizer_index()
            assert fallback is not facade.engine("mm2").core
        if hasattr(os, "fork"):
            # A pool forks the pipeline: the index must exist first, or
            # every worker builds its own.
            with Mapper(small_reference, seedmap,
                        config=MappingConfig(workers=2)) as pooled:
                pooled.warm_up()
                assert builds == [1, 1]
                assert pooled._executor is not None

    def test_unknown_engine_names_available(self, mapper, pairs):
        with pytest.raises(RegistryError, match="genpair"):
            mapper.map(pairs, engine="bowtie")

    def test_per_run_stats_typed_by_engine(self, mapper, pairs,
                                           long_reads):
        mapper.map(pairs, engine="genpair")
        assert isinstance(mapper.last_stats, PipelineStats)
        assert mapper.last_engine == "genpair"
        mapper.map(pairs, engine="mm2")
        assert isinstance(mapper.last_stats, MapperStats)
        assert mapper.last_stats.pairs_seen == len(pairs)
        assert mapper.last_stats.reads_seen == 2 * len(pairs)
        mapper.map(long_reads, engine="longread")
        assert isinstance(mapper.last_stats, LongReadStats)
        assert mapper.last_engine == "longread"

    def test_engine_stats_accumulate_per_engine(
            self, small_reference, seedmap, pairs):
        with Mapper(small_reference, seedmap,
                    config=MappingConfig(full_fallback=False)) as facade:
            facade.map(pairs[:4], engine="genpair")
            facade.map(pairs[:6], engine="mm2")
            facade.map(pairs[6:9], engine="mm2")
            totals = facade.engine_stats()
            assert totals["genpair"]["pairs_total"] == 4
            assert totals["mm2"]["pairs_seen"] == 9
            # the historical GenPair accumulator is untouched by mm2
            assert facade.stats.pairs_total == 4
            facade.reset_stats()
            assert facade.engine_stats()["mm2"]["pairs_seen"] == 0

    def test_one_run_at_a_time_across_engines(self, mapper, pairs):
        stream = mapper.map_stream(pairs, engine="genpair")
        with pytest.raises(RuntimeError, match="one run at a time"):
            mapper.map(pairs, engine="mm2")
        stream.close()


class TestParityEdges:
    def test_mm2_pair_spanning_chromosome_boundary(self,
                                                   small_reference,
                                                   seedmap):
        # read1 from the tail of chr1, read2 from the head of chr2:
        # adjacent in linear coordinates but on different chromosomes.
        len1 = small_reference.length("chr1")
        read1 = small_reference.fetch("chr1", len1 - 150, len1)
        read2 = reverse_complement(small_reference.fetch("chr2", 0, 150))
        with Mapper(small_reference, seedmap,
                    config=MappingConfig(full_fallback=False)) as facade:
            (result,) = facade.map([(read1, read2, "straddle")],
                                   engine="mm2")
        record1, record2 = result.records
        assert record1.mapped and record1.chromosome == "chr1"
        assert record2.mapped and record2.chromosome == "chr2"
        # A cross-chromosome pair must never carry the proper-pair flag.
        assert not record1.proper_pair and not record2.proper_pair

    def test_longread_shorter_than_one_chunk_unmapped(self, mapper):
        short = np.zeros(40, dtype=np.uint8)  # < chunk_length (150)
        (result,) = mapper.map([(short, "tiny")], engine="longread")
        assert not result.mapped
        assert result.stage == "unmapped"
        assert mapper.last_stats.pseudo_pairs == 0

    @pytest.mark.parametrize("engine", ["genpair", "mm2", "longread"])
    def test_empty_input_returns_empty_with_zeroed_stats(self, mapper,
                                                         engine):
        import dataclasses

        assert mapper.map([], engine=engine) == []
        stats = mapper.last_stats
        assert {spec.name: int(getattr(stats, spec.name))
                for spec in dataclasses.fields(stats)} \
            == {spec.name: 0 for spec in dataclasses.fields(stats)}


class TestLongReadChunkSize:
    """Long-read resolution is chunk-wide (all pseudo-pair chunks of an
    engine chunk in one SeedMap probe), so — as for genpair — the chunk
    size must never show in the output."""

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_batch_size_never_changes_output(self, small_reference,
                                             seedmap, simulator,
                                             batch_size):
        reads = simulator.simulate_long_reads(9, length_mean=1500,
                                              length_sd=400)
        runs = []
        for size in (2, batch_size):
            config = MappingConfig(engine="longread", batch_size=size,
                                   full_fallback=False)
            with Mapper(small_reference, seedmap, config=config) as facade:
                results = facade.map(reads)
                lines = {fmt: list(facade.lines(results, format=fmt))
                         for fmt in ("sam", "paf", "jsonl")}
                runs.append((lines, facade.last_stats))
        assert runs[0] == runs[1]
        assert runs[0][1].reads_total == 9 and runs[0][1].mapped >= 8


class TestOutputFormats:
    def test_write_and_lines_byte_identical_everywhere(
            self, tmp_path, mapper, pairs, long_reads):
        for engine, items in (("genpair", pairs), ("mm2", pairs),
                              ("longread", long_reads)):
            results = mapper.map(items, engine=engine)
            for fmt in ("sam", "paf", "jsonl"):
                path = tmp_path / f"{engine}.{fmt}"
                count = mapper.write(results, path, format=fmt)
                wire = "".join(
                    line + "\n"
                    for line in mapper.lines(results, format=fmt))
                assert path.read_text() == wire
                assert count >= 0

    def test_default_format_comes_from_config(self, small_reference,
                                              seedmap, pairs, tmp_path):
        config = MappingConfig(full_fallback=False,
                               output_format="jsonl")
        with Mapper(small_reference, seedmap, config=config) as facade:
            results = facade.map(pairs[:3])
            path = tmp_path / "default.out"
            facade.write(results, path)
            assert path.read_text().startswith('{"name"')

    def test_unknown_format_names_available(self, mapper, pairs):
        results = mapper.map(pairs[:2])
        with pytest.raises(RegistryError, match="jsonl, paf, sam"):
            list(mapper.lines(results, format="bam"))

    def test_output_format_helper_resolves(self):
        assert output_format("paf").suffix == ".paf"


class TestMapFileArity:
    def test_single_engine_rejects_two_files(self, mapper, tmp_path):
        path = tmp_path / "r.fq"
        write_fastq(path, [("r", np.zeros(200, dtype=np.uint8))])
        with pytest.raises(MappingConfigError, match="single-read"):
            mapper.map_file(path, path, engine="longread")

    def test_paired_engine_rejects_one_file(self, mapper, tmp_path):
        path = tmp_path / "r.fq"
        write_fastq(path, [("r", np.zeros(200, dtype=np.uint8))])
        with pytest.raises(MappingConfigError, match="paired"):
            mapper.map_file(path, engine="mm2")

    def test_longread_map_file_round_trip(self, mapper, tmp_path,
                                          long_reads):
        path = tmp_path / "long.fq"
        write_fastq(path, ((r.name, r.codes) for r in long_reads))
        results = list(mapper.map_file(path, engine="longread"))
        assert [r.name for r in results] == [r.name for r in long_reads]


class TestEngineOptions:
    """What the facade hands each core: the core's own defaults, plus
    ``seed_length``/``delta`` where the core shares the SeedMap."""

    def test_mm2_engine_runs_the_core_defaults(self, small_reference,
                                               seedmap):
        config = MappingConfig(engine="mm2", full_fallback=False)
        with Mapper(small_reference, seedmap, config=config) as facade:
            assert facade.engine("mm2").core.config == MapperConfig()

    def test_longread_engine_gets_seed_length_and_delta(
            self, small_reference, seedmap):
        config = MappingConfig(engine="longread", full_fallback=False,
                               delta=321)
        with Mapper(small_reference, seedmap, config=config) as facade:
            assert facade.engine("longread").core.config \
                == LongReadConfig(seed_length=seedmap.seed_length,
                                  delta=321)

    def test_chunk_shorter_than_seed_rejected(self, small_reference,
                                              seedmap):
        config = MappingConfig(engine="longread", full_fallback=False,
                               seed_length=200)
        with Mapper(small_reference, seedmap, config=config) as facade:
            with pytest.raises(MappingConfigError, match="chunk_length"):
                facade.engine("longread")

    def test_unknown_option_keys_rejected_by_name(self):
        # The sub-config and algorithm fields the facade dropped fail by
        # name on the wire path, like any other unknown key.
        with pytest.raises(MappingConfigError, match="longread, mm2"):
            MappingConfig.from_dict({"engine": "mm2",
                                     "mm2": {"mate_rescue": False},
                                     "longread": None})
        with pytest.raises(MappingConfigError, match="max_edits"):
            MappingConfig.from_dict({"max_edits": 3})


class TestVariantPostStage:
    def test_map_and_call_writes_both_outputs(self, tmp_path,
                                              small_reference, seedmap,
                                              simulator):
        pairs = simulator.simulate_pairs(60)
        with Mapper(small_reference, seedmap,
                    config=MappingConfig(full_fallback=False)) as facade:
            out = tmp_path / "out.sam"
            vcf = tmp_path / "out.vcf"
            records, calls = facade.map_and_call(
                facade.map_stream(pairs), out, vcf)
        assert records == 2 * len(pairs)
        assert out.read_text().startswith("@HD")
        assert "##fileformat" in vcf.read_text()
        assert calls >= 0
