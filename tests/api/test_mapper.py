"""The Mapper facade: construction, engines, stats lifecycle, reuse."""

import os

import pytest

from repro.api import Mapper, MappingConfig
from repro.core import GenPairPipeline
from repro.genome import write_fastq
from repro.index import save_index


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

    def test_from_index_serves_identical_results(
            self, tmp_path, small_reference, seedmap, pairs,
            reference_results):
        path = tmp_path / "facade.rpix"
        save_index(path, seedmap, small_reference)
        with Mapper.from_index(path, full_fallback=False) as mapper:
            assert signatures(mapper.map(pairs)) == reference_results


class TestEngines:
    def test_chunks_of_one_match_default_batch(self, small_reference,
                                               pairs, reference_results):
        with Mapper.from_reference(small_reference, batch_size=1,
                                   full_fallback=False) as mapper:
            assert signatures(mapper.map(pairs)) == reference_results

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="worker pool needs os.fork")
    def test_worker_pool_created_once_and_reused(self, small_reference,
                                                 pairs,
                                                 reference_results):
        with Mapper.from_reference(small_reference, workers=2,
                                   batch_size=16,
                                   full_fallback=False) as mapper:
            assert mapper.uses_pool
            assert mapper._executor is None  # lazy until first run
            first = signatures(mapper.map(pairs))
            executor = mapper._executor
            assert executor is not None
            second = signatures(mapper.map(pairs))
            assert mapper._executor is executor  # reused, not re-forked
            assert first == second == reference_results

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="worker pool needs os.fork")
    def test_warm_up_creates_the_pool_eagerly(self, small_reference):
        with Mapper.from_reference(small_reference, workers=2,
                                   batch_size=16,
                                   full_fallback=False) as mapper:
            mapper.warm_up()
            assert mapper._executor is not None


class TestForkGuard:
    """Where ``fork`` is missing, ``workers=2`` maps in-process: same
    output, one note per mapper."""

    def test_no_fork_start_method_degrades(self, monkeypatch, capsys,
                                           small_reference, pairs,
                                           reference_results):
        import multiprocessing

        def no_fork(method=None):
            raise ValueError("cannot find context for 'fork'")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        with Mapper.from_reference(small_reference, workers=2,
                                   full_fallback=False) as mapper:
            assert not mapper.uses_pool
            assert signatures(mapper.map(pairs)) == reference_results
            assert mapper._executor is None
            assert mapper.last_stats.pairs_total == len(pairs)
        assert "os.fork" in capsys.readouterr().err

    def test_platform_without_os_fork_notes_once(self, monkeypatch,
                                                 capsys, small_reference,
                                                 pairs,
                                                 reference_results):
        # Regression: a degraded stream used to print the note once per
        # flushed buffer; it must appear once per mapper.
        monkeypatch.delattr(os, "fork")
        with Mapper.from_reference(small_reference, workers=2,
                                   batch_size=8,
                                   full_fallback=False) as mapper:
            mapper.warm_up()
            assert signatures(mapper.map(pairs)) == reference_results
            assert signatures(mapper.map_stream(iter(pairs))) \
                == reference_results
            assert mapper._executor is None
        assert capsys.readouterr().err.count("single-process") == 1
        # A fresh mapper gets its own (single) note.
        with Mapper.from_reference(small_reference, workers=2,
                                   full_fallback=False) as other:
            other.map(pairs[:4])
        assert capsys.readouterr().err.count("single-process") == 1


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

    def test_closed_mapper_refuses_work(self, small_reference, pairs):
        mapper = Mapper.from_reference(small_reference,
                                       full_fallback=False)
        mapper.close()
        mapper.close()  # idempotent
        with pytest.raises(RuntimeError):
            mapper.map(pairs)
