"""The Mapper facade: construction, engines, stats lifecycle, reuse."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import Mapper, MappingConfig, MappingConfigError
from repro.core import GenPairPipeline
from repro.genome import ReadSimulator, write_fastq
from repro.index import build_index, save_index


def record_signature(record):
    return (record.query_name, record.chromosome, record.position,
            record.strand, str(record.cigar), record.score,
            record.mate, record.mapped, record.method,
            record.template_length, record.proper_pair)


def result_signature(result):
    return (result.name, result.stage, result.orientation,
            result.joint_score, record_signature(result.record1),
            record_signature(result.record2))


def signatures(results):
    return [result_signature(result) for result in results]


@pytest.fixture(scope="module")
def pairs(simulator):
    return simulator.simulate_pairs(60)


@pytest.fixture(scope="module")
def reference_results(small_reference, seedmap, pairs):
    """Ground truth: the raw pipeline, no fallback."""
    pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
    return signatures(pipeline.map_pairs(pairs))


class TestConstruction:
    def test_from_reference_accepts_in_memory_genome(
            self, small_reference, pairs, reference_results):
        with Mapper.from_reference(small_reference,
                                   full_fallback=False) as mapper:
            assert signatures(mapper.map(pairs)) == reference_results

    def test_from_reference_accepts_fasta_path(self, tmp_path,
                                               small_reference, pairs,
                                               reference_results):
        from repro.genome import write_fasta

        fasta = tmp_path / "ref.fa"
        write_fasta(fasta, small_reference)
        with Mapper.from_reference(fasta, full_fallback=False) \
                as mapper:
            assert signatures(mapper.map(pairs)) == reference_results

    @pytest.mark.parametrize("engine", ["genpair", "mm2", "longread"])
    def test_from_index_serves_identical_results(
            self, tmp_path, small_reference, small_index, pairs, engine):
        """Both constructors stand on one kind of index, so every
        engine, the fallback on, writes the same lines in every
        format."""
        path = tmp_path / "facade.rpix"
        save_index(path, small_index)
        items = workload(engine, small_reference, pairs, len(pairs))
        outputs = []
        for build in (lambda: Mapper.from_reference(small_reference,
                                                    engine=engine),
                      lambda: Mapper.from_index(path, engine=engine)):
            with build() as mapper:
                results = mapper.map(items)
                outputs.append({fmt: list(mapper.lines(results,
                                                       format=fmt))
                                for fmt in ("sam", "paf", "jsonl")})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]["jsonl"]) >= len(items)

    def test_index_built_with_another_seed_length_is_refused(
            self, plain_reference, clean_pairs):
        index = build_index(plain_reference, seed_length=32)
        with pytest.raises(MappingConfigError) as excinfo:
            Mapper(index, MappingConfig())
        message = str(excinfo.value)
        assert "seed_length 32, expected 50" in message
        assert "filter_threshold" not in message
        # Without a config the mapper adopts the index's fingerprint.
        with Mapper(index) as mapper:
            assert mapper.config.seed_length == 32
            results = mapper.map(clean_pairs[:50])
        assert sum(result.mapped for result in results) == 50


#: Packages no engine imports: the variant caller.
LEAVES = ("repro.variants",)

_MAP_AND_LIST_LEAVES = """
import sys
import numpy as np
from repro.api import Mapper, MappingConfig, MappingConfigError
from repro.genome import random_sequence
rng = np.random.default_rng(5)
items = [(random_sequence(rng, 150), random_sequence(rng, 150), f"p{i}")
         for i in range(4)]
with Mapper.from_index(sys.argv[1]) as mapper:
    for engine in ("genpair", "mm2"):
        assert len(mapper.map(items, engine=engine)) == 4
print(" ".join(name for name in sys.modules for leaf in sys.argv[2:]
               if name == leaf or name.startswith(leaf + ".")))
"""


class TestImportFootprint:
    def test_mapping_loads_no_leaf_package(self, tmp_path, small_index):
        """``import repro.api``, open an index, map through both paired
        engines (GenPair with its mm2 fallback): none of the leaves is
        loaded."""
        path = tmp_path / "leaves.rpix"
        save_index(path, small_index)
        source = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [source] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        done = subprocess.run(
            [sys.executable, "-c", _MAP_AND_LIST_LEAVES, str(path),
             *LEAVES], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_leaves_import_by_name(self, leaf):
        assert importlib.import_module(leaf).__name__ == leaf


class TestEngines:
    def test_chunks_of_one_match_default_batch(self, small_reference,
                                               pairs, reference_results):
        with Mapper.from_reference(small_reference, batch_size=1,
                                   full_fallback=False) as mapper:
            assert signatures(mapper.map(pairs)) == reference_results


class TestFiles:
    def test_map_file_and_write_sam_match_offline_pipeline(
            self, tmp_path, small_reference, seedmap, pairs):
        fq1, fq2 = tmp_path / "r_1.fq", tmp_path / "r_2.fq"
        write_fastq(fq1, ((p.read1.name, p.read1.codes) for p in pairs))
        write_fastq(fq2, ((p.read2.name, p.read2.codes) for p in pairs))
        sam_facade = tmp_path / "facade.sam"
        with Mapper.from_reference(small_reference,
                                   full_fallback=False) as mapper:
            count = mapper.write(mapper.map_file(fq1, fq2), sam_facade,
                                 format="sam")
        assert count == 2 * len(pairs)

        from repro.genome import SamWriter, iter_pairs

        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        sam_pipeline = tmp_path / "pipeline.sam"
        with SamWriter(sam_pipeline, reference=small_reference) \
                as writer:
            writer.drain(pipeline.map_stream(iter_pairs(fq1, fq2)))
        assert sam_facade.read_bytes() == sam_pipeline.read_bytes()

    def test_sam_lines_reproduce_written_sam_bytes(self, tmp_path,
                                                   small_reference, pairs):
        with Mapper.from_reference(small_reference,
                                   full_fallback=False) as mapper:
            lines = list(mapper.lines(mapper.map_stream(pairs),
                                      format="sam"))
            path = tmp_path / "whole.sam"
            mapper.write(mapper.map_stream(pairs), path, format="sam")
        assert "\n".join(lines) + "\n" == path.read_text()


def long_reads(reference, count=2):
    return [(read.codes, read.name) for read in ReadSimulator(
        reference, seed=3).simulate_long_reads(count, 1_000, 200)]


def workload(engine, reference, pairs, count):
    """``count`` named items of the kind ``engine`` maps."""
    if engine == "longread":
        return long_reads(reference, count)
    return [(p.read1.codes, p.read2.codes, p.name) for p in pairs[:count]]


def item_names(items):
    return [item[-1] for item in items]


def fastq_inputs(tmp_path, engine, items):
    """``items`` written as the FASTQ file(s) ``engine`` maps."""
    if engine == "longread":
        paths = [tmp_path / "long.fq"]
        write_fastq(paths[0], ((name, codes) for codes, name in items))
    else:
        paths = [tmp_path / "r_1.fq", tmp_path / "r_2.fq"]
        write_fastq(paths[0], ((name, r1) for r1, _, name in items))
        write_fastq(paths[1], ((name, r2) for _, r2, name in items))
    return paths


class TestPartialRuns:
    """A run that fails part-way yields every chunk mapped before the
    failure, then raises it, and gives the run slot back."""

    @pytest.mark.parametrize("engine", ["genpair", "mm2", "longread"])
    def test_truncated_fastq_yields_mapped_items_then_raises(
            self, tmp_path, small_reference, pairs, engine):
        from repro.genome import FastaError

        items = workload(engine, small_reference, pairs, 20)
        paths = fastq_inputs(tmp_path, engine, items)
        lines = paths[-1].read_text().splitlines(keepends=True)
        paths[-1].write_text("".join(lines[:-2]))  # 2 of the 4 lines
        names = []
        with Mapper.from_reference(small_reference, engine=engine,
                                   batch_size=8,
                                   full_fallback=False) as mapper:
            with pytest.raises(FastaError, match="truncated"):
                for result in mapper.map_file(*paths):
                    names.append(result.name)
            # Two full chunks of 8; the chunk holding the cut fails.
            assert names == item_names(items[:16])
            assert mapper.last_engine == engine
            assert len(mapper.map(items[:3])) == 3

    @pytest.mark.parametrize("engine", ["genpair", "mm2", "longread"])
    def test_failing_source_yields_mapped_items_then_raises(
            self, small_reference, pairs, engine):
        items = workload(engine, small_reference, pairs, 20)

        def source():
            yield from items
            raise ValueError("reader died mid-stream")

        names = []
        with Mapper.from_reference(small_reference, engine=engine,
                                   batch_size=8,
                                   full_fallback=False) as mapper:
            with pytest.raises(ValueError, match="reader died"):
                for result in mapper.map_stream(source()):
                    names.append(result.name)
            # The partial chunk of 4 never maps.
            assert names == item_names(items[:16])
            assert len(mapper.map(items[:3])) == 3

    @pytest.mark.parametrize("engine", ["genpair", "mm2", "longread"])
    def test_unopenable_output_gives_the_run_slot_back(
            self, tmp_path, small_reference, pairs, engine):
        """``write`` closes the primed run when the output cannot be
        opened, even while the caller keeps the exception (and with it
        the frame that holds the run)."""
        items = workload(engine, small_reference, pairs, 20)
        paths = fastq_inputs(tmp_path, engine, items)
        saved = None
        with Mapper.from_reference(small_reference, engine=engine,
                                   batch_size=8,
                                   full_fallback=False) as mapper:
            try:
                mapper.write(mapper.map_file(*paths),
                             tmp_path / "missing" / "out.sam")
            except FileNotFoundError as exc:
                saved = exc
            assert saved is not None
            assert len(list(mapper.map_file(*paths))) == 20

    def test_raising_chunk_surfaces_its_own_error(self, small_reference,
                                                  pairs):
        items = workload("genpair", small_reference, pairs, 24)
        items[13] = items[13][:2] + ("poison",)
        with Mapper.from_reference(small_reference, batch_size=8,
                                   full_fallback=False) as mapper:
            pipeline = mapper.pipeline
            real = pipeline._map_chunk

            def raising(chunk):
                if any(name == "poison" for _, _, name in chunk):
                    raise ValueError("kaput in chunk")
                return real(chunk)

            pipeline._map_chunk = raising
            names = []
            with pytest.raises(ValueError, match="kaput in chunk"):
                for result in mapper.map_stream(items):
                    names.append(result.name)
            assert names == item_names(items[:8])
            assert mapper.last_stats.pairs_total == 8
            del pipeline._map_chunk
            assert len(mapper.map(items)) == 24


class TestResourceLifetime:
    """A closed and dropped mapper leaves no fd open and no
    ``ResourceWarning`` behind: the index mmap, the FASTQ inputs and
    every output file are released, whatever engine, format and path
    (``write`` or ``lines``) a run took."""

    def test_close_returns_every_fd(self, tmp_path, fds_returned,
                                    small_reference, small_index, pairs):
        path = tmp_path / "fds.rpix"
        save_index(path, small_index)
        reads = long_reads(small_reference)
        with fds_returned():
            mapper = Mapper.from_index(path, batch_size=8)
            for engine in ("genpair", "mm2"):
                for fmt in ("sam", "paf", "jsonl"):
                    mapper.write(mapper.map_stream(pairs[:16], engine),
                                 tmp_path / f"{engine}.{fmt}", format=fmt)
                    lines = mapper.lines(mapper.map_stream(pairs[:16],
                                                           engine),
                                         format=fmt)
                    assert sum(1 for _ in lines) >= 16
            mapper.write(mapper.map_stream(reads, "longread"),
                         tmp_path / "long.sam")
            mapper.close()
            del mapper

    @pytest.mark.parametrize("engine", ["genpair", "longread"])
    @pytest.mark.parametrize("drained", [True, False],
                             ids=["drained", "abandoned"])
    def test_map_file_returns_every_fd(self, tmp_path, fds_returned,
                                       small_reference, pairs, engine,
                                       drained):
        """The FASTQ handles ``map_file`` opens close with the run,
        whether it is read to the end or dropped after its first
        result."""
        if engine == "longread":
            inputs = [tmp_path / "long.fq"]
            write_fastq(inputs[0], ((name, codes) for codes, name
                                    in long_reads(small_reference, 6)))
        else:
            inputs = [tmp_path / "r_1.fq", tmp_path / "r_2.fq"]
            write_fastq(inputs[0], ((p.read1.name, p.read1.codes)
                                    for p in pairs))
            write_fastq(inputs[1], ((p.read2.name, p.read2.codes)
                                    for p in pairs))
        with fds_returned():
            with Mapper.from_reference(small_reference, engine=engine,
                                       batch_size=4,
                                       full_fallback=False) as mapper:
                stream = mapper.map_file(*inputs)
                if drained:
                    assert len(list(stream)) == (6 if engine == "longread"
                                                 else len(pairs))
                else:
                    next(stream)
                    stream.close()
                # The mapper is still usable: the run slot came back.
                assert mapper.map(pairs[:2], engine="genpair")
            del mapper, stream


class TestStatsLifecycle:
    def test_per_run_and_cumulative_stats(self, small_reference,
                                          pairs):
        with Mapper.from_reference(small_reference,
                                   full_fallback=False) as mapper:
            mapper.map(pairs)
            assert mapper.last_stats.pairs_total == len(pairs)
            assert mapper.stats.pairs_total == len(pairs)
            mapper.map(pairs[:10])
            # last_stats is the just-finished run, not the total ...
            assert mapper.last_stats.pairs_total == 10
            # ... which accumulates across runs.
            assert mapper.stats.pairs_total == len(pairs) + 10
            mapper.reset_stats()
            assert mapper.stats.pairs_total == 0
            assert mapper.last_stats.pairs_total == 0

    def test_abandoned_stream_still_finalizes_stats(self,
                                                    small_reference,
                                                    pairs):
        with Mapper.from_reference(small_reference, batch_size=8,
                                   full_fallback=False) as mapper:
            stream = mapper.map_stream(pairs)
            next(stream)
            stream.close()
            # The partial run's counters landed; a new run is allowed.
            assert 0 < mapper.last_stats.pairs_total <= len(pairs)
            assert mapper.map(pairs[:4])[0].name == pairs[0].name

    def test_one_run_at_a_time(self, small_reference, pairs):
        with Mapper.from_reference(small_reference,
                                   full_fallback=False) as mapper:
            stream = mapper.map_stream(pairs)
            next(stream)
            with pytest.raises(RuntimeError):
                mapper.map(pairs)
            stream.close()

    def test_unconsumed_streams_cannot_interleave(self,
                                                  small_reference,
                                                  pairs):
        # The run slot is claimed when the stream is *created*, not on
        # first next(): two pending streams would interleave per-run
        # counters.
        with Mapper.from_reference(small_reference,
                                   full_fallback=False) as mapper:
            pending = mapper.map_stream(pairs)
            with pytest.raises(RuntimeError):
                mapper.map_stream(pairs)
            pending.close()  # releases the slot even if never consumed
            assert len(mapper.map(pairs[:3])) == 3

    def test_warm_up_builds_the_named_engine_only(self, small_reference):
        mapper = Mapper.from_reference(small_reference,
                                       full_fallback=False)
        assert mapper.warm_up() is mapper
        assert list(mapper._engines) == ["genpair"]
        mapper.warm_up("mm2")
        assert sorted(mapper._engines) == ["genpair", "mm2"]
        mapper.close()
        with pytest.raises(RuntimeError, match="closed"):
            mapper.warm_up()

    def test_closed_mapper_refuses_work(self, small_reference, pairs):
        mapper = Mapper.from_reference(small_reference,
                                       full_fallback=False)
        mapper.close()
        mapper.close()  # idempotent
        with pytest.raises(RuntimeError):
            mapper.map(pairs)
