"""The persistent worker-pool streaming executor: the one parallel mode.

Pooled output, statistics and folded metrics must equal the in-process
path's; beyond that, what the equivalence checks cannot see from the
outside: one pool serving many buffers, bounded input consumption,
ordered merging under skewed chunk latencies, and failure surfacing
(worker exceptions and hard worker deaths must abort the stream with a
clear error, never hang it).
"""

import os
import time

import pytest

from repro.core import GenPairPipeline, StreamExecutor
from repro.core.executor import _FORK_STATE, READ_AHEAD_DEPTH
from repro.obs import get_registry

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs the fork start method")


class SkewedPipeline(GenPairPipeline):
    """Even-numbered chunks map slowly — later odd chunks finish first,
    so the ordered-merge collector has to buffer and reorder.  Hooks
    ``_map_chunk``, the per-chunk entry the stream workers call."""

    def _map_chunk(self, items):
        if items and int(items[0][2]) // 8 % 2 == 0:
            time.sleep(0.05)
        return super()._map_chunk(items)


class RaisingPipeline(GenPairPipeline):
    """Raises inside the worker when a poisoned pair name arrives."""

    def _map_chunk(self, items):
        if any(name == "poison" for _, _, name in items):
            raise ValueError("kaput in worker")
        return super()._map_chunk(items)


class CrashingPipeline(GenPairPipeline):
    """Kills the worker process outright (simulating OOM/segfault)."""

    def _map_chunk(self, items):
        if any(name == "crash" for _, _, name in items):
            os._exit(3)
        return super()._map_chunk(items)


@pytest.fixture()
def named_tuples(sample_pairs):
    return [(pair.read1.codes, pair.read2.codes, pair.name)
            for pair in sample_pairs]


def pooled_stream(pipeline, pairs, chunk_size, workers=2, inflight=None):
    """One pool for one stream: forked on the first ``next()``, shut
    down — worker stats folded into the pipeline — once the stream is
    exhausted or closed."""
    executor = StreamExecutor(pipeline, workers=workers,
                              chunk_size=chunk_size, inflight=inflight)
    try:
        yield from executor.map(pairs)
    finally:
        executor.close()


class TestPooledEqualsSerial:
    def test_identical_results_and_merged_stats(
            self, small_reference, seedmap, sample_pairs,
            result_signature):
        solo = GenPairPipeline(small_reference, seedmap=seedmap)
        pooled = GenPairPipeline(small_reference, seedmap=seedmap)
        expected = list(solo.map_stream(iter(sample_pairs),
                                        chunk_size=32))
        actual = list(pooled_stream(pooled, iter(sample_pairs),
                                    chunk_size=32))
        assert list(map(result_signature, expected)) \
            == list(map(result_signature, actual))
        # Worker stats were folded in once, at pool shutdown.
        assert solo.stats == pooled.stats

    def test_input_that_fits_in_one_chunk(self, small_reference, seedmap,
                                          sample_pairs, result_signature):
        # Regression: a pooled run whose input fits in one chunk must
        # still go through the pool (exactly ``workers`` forks) and
        # come out identical — never silently in-process.
        subset = sample_pairs[:60]
        serial = GenPairPipeline(small_reference, seedmap=seedmap)
        want = serial.map_pairs(subset, chunk_size=256)
        forked = {"count": 0}
        original = os.fork

        def counting_fork():
            forked["count"] += 1
            return original()

        os.fork = counting_fork
        try:
            pooled = GenPairPipeline(small_reference, seedmap=seedmap)
            got = list(pooled_stream(pooled, subset, chunk_size=256))
        finally:
            os.fork = original
        assert forked["count"] == 2
        assert list(map(result_signature, got)) \
            == list(map(result_signature, want))
        assert pooled.stats == serial.stats

    def test_unnamed_tuples_numbered_globally(self, small_reference,
                                              seedmap, sample_pairs):
        tuples = [(pair.read1.codes, pair.read2.codes)
                  for pair in sample_pairs]
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        names = [result.name for result in
                 pooled_stream(pipeline, iter(tuples), chunk_size=16)]
        assert names == [f"pair{i}" for i in range(len(tuples))]

    def test_stream_consumption_is_bounded(self, small_reference,
                                           seedmap, sample_pairs):
        # The persistent pool is fed chunk by chunk with a bounded
        # number of chunks in flight — never the whole input.  With
        # inflight submitted chunks, the read-ahead depth, and partial
        # chunks, consumption after the first result cannot exceed
        # (inflight + depth + 3) x chunk_size pairs.
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        consumed = []

        def feed():
            for index, pair in enumerate(sample_pairs):
                consumed.append(index)
                yield pair

        chunk_size, inflight = 8, 2
        stream = pooled_stream(pipeline, feed(), chunk_size=chunk_size,
                               inflight=inflight)
        next(stream)
        bound = (inflight + READ_AHEAD_DEPTH + 3) * chunk_size
        assert len(consumed) <= bound < len(sample_pairs)
        assert len(list(stream)) == len(sample_pairs) - 1
        assert len(consumed) == len(sample_pairs)


class TestPoolLifecycle:
    def test_one_pool_serves_many_buffers(self, small_reference, seedmap,
                                          sample_pairs):
        # 120 pairs at chunk 16 = 8 chunks; the pool must be the same
        # two processes throughout, across two separate map() calls.
        state_before = len(_FORK_STATE)
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        executor = StreamExecutor(pipeline, workers=2, chunk_size=16)
        assert len(_FORK_STATE) == state_before + 1
        pids = sorted(process.pid for process in executor._processes)
        first = list(executor.map(sample_pairs))
        assert len(first) == len(sample_pairs)
        assert sorted(p.pid for p in executor._processes) == pids
        assert all(p.is_alive() for p in executor._processes)
        second = list(executor.map(sample_pairs[:40]))
        assert len(second) == 40
        assert sorted(p.pid for p in executor._processes) == pids
        executor.close()
        assert all(not p.is_alive() for p in executor._processes)
        assert len(_FORK_STATE) == state_before

    def test_close_is_idempotent_and_map_after_close_rejected(
            self, small_reference, seedmap):
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        executor = StreamExecutor(pipeline, workers=2)
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(executor.map([]))

    def test_close_during_active_map_fails_the_stream_clearly(
            self, small_reference, seedmap, sample_pairs):
        # Resuming a map() generator after close() must raise the
        # executor's own error, not a cryptic closed-queue failure.
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        executor = StreamExecutor(pipeline, workers=2, chunk_size=8)
        stream = executor.map(sample_pairs)
        next(stream)
        executor.close()
        with pytest.raises(RuntimeError, match="closed while"):
            for _ in stream:
                pass

    def test_invalid_configuration_rejected(self, small_reference,
                                            seedmap):
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        with pytest.raises(ValueError):
            StreamExecutor(pipeline, workers=0)
        with pytest.raises(ValueError):
            StreamExecutor(pipeline, workers=2, chunk_size=0)
        with pytest.raises(ValueError):
            StreamExecutor(pipeline, workers=4, inflight=2)

    def test_abandoned_stream_terminates_workers(self, small_reference,
                                                 seedmap, named_tuples):
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        stream = pooled_stream(pipeline, iter(named_tuples), chunk_size=8)
        next(stream)
        stream.close()  # abandons in-flight chunks; must not hang

    def test_reuse_after_early_close_discards_stale_results(
            self, small_reference, seedmap, named_tuples):
        # Regression: a map() generator closed early leaves its
        # in-flight chunks completing in the background; a later map()
        # on the same executor must not merge those stale results into
        # its own (differently ordered) stream.
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        with StreamExecutor(pipeline, workers=2,
                            chunk_size=8) as executor:
            first = executor.map(named_tuples)
            next(first)
            first.close()
            time.sleep(0.3)  # let abandoned chunks land on the queue
            reordered = list(reversed(named_tuples))
            got = [r.name for r in executor.map(reordered)]
            assert got == [name for _, _, name in reordered]

    def test_unclosed_executor_is_reaped_at_gc(self, small_reference,
                                               seedmap):
        import gc

        state_before = len(_FORK_STATE)
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        executor = StreamExecutor(pipeline, workers=2, chunk_size=8)
        processes = list(executor._processes)
        assert all(p.is_alive() for p in processes)
        del executor
        gc.collect()
        for process in processes:
            process.join(timeout=5.0)
        assert all(not p.is_alive() for p in processes)
        assert len(_FORK_STATE) == state_before

    def test_stats_folded_once_at_shutdown(self, small_reference,
                                           seedmap, sample_pairs):
        serial = GenPairPipeline(small_reference, seedmap=seedmap)
        list(serial.map_stream(iter(sample_pairs), chunk_size=16))
        pooled = GenPairPipeline(small_reference, seedmap=seedmap)
        stream = pooled_stream(pooled, iter(sample_pairs), chunk_size=16)
        for _ in range(len(sample_pairs) - 1):
            next(stream)
        # The pool is still open mid-stream; nothing folded yet beyond
        # what close() will account for exactly once.
        assert list(stream) != []  # exhausts -> shutdown -> fold
        assert pooled.stats == serial.stats


class TestOrderedMerge:
    def test_ordered_output_under_skewed_latencies(self, small_reference,
                                                   seedmap, sample_pairs):
        tuples = [(pair.read1.codes, pair.read2.codes, str(index))
                  for index, pair in enumerate(sample_pairs[:64])]
        serial = GenPairPipeline(small_reference, seedmap=seedmap)
        want = [(r.name, r.stage, r.record1.position, r.joint_score)
                for r in serial.map_stream(iter(tuples), chunk_size=8)]
        skewed = SkewedPipeline(small_reference, seedmap=seedmap)
        got = [(r.name, r.stage, r.record1.position, r.joint_score)
               for r in pooled_stream(skewed, iter(tuples), chunk_size=8)]
        assert got == want


class TestFailureSurfacing:
    def test_source_error_drains_inflight_results_first(
            self, small_reference, seedmap, named_tuples):
        # Regression: when the pair source itself raises (a truncated
        # FASTQ mid-stream), the worker path used to re-raise at once
        # and discard up to inflight + read-ahead chunks of already
        # mapped results; it must yield exactly what the serial path
        # yields before surfacing the same error.
        def broken_feed():
            for pair in named_tuples[:100]:
                yield pair
            raise ValueError("reader died mid-stream")

        def collect(stream):
            names = []
            with pytest.raises(ValueError, match="reader died"):
                for result in stream:
                    names.append(result.name)
            return names

        serial = GenPairPipeline(small_reference, seedmap=seedmap)
        want = collect(serial.map_stream(broken_feed(), chunk_size=8))
        pooled = GenPairPipeline(small_reference, seedmap=seedmap)
        got = collect(pooled_stream(pooled, broken_feed(), chunk_size=8))
        assert got == want
        assert len(want) == 96  # 12 full chunks; the partial one drops

    def test_worker_exception_carries_traceback(self, small_reference,
                                                seedmap, named_tuples):
        poisoned = list(named_tuples)
        poisoned[30] = (poisoned[30][0], poisoned[30][1], "poison")
        pipeline = RaisingPipeline(small_reference, seedmap=seedmap)
        with pytest.raises(RuntimeError, match="kaput in worker"):
            list(pooled_stream(pipeline, iter(poisoned), chunk_size=8))

    def test_worker_death_aborts_with_clear_error(self, small_reference,
                                                  seedmap, named_tuples):
        killed = list(named_tuples)
        killed[30] = (killed[30][0], killed[30][1], "crash")
        pipeline = CrashingPipeline(small_reference, seedmap=seedmap)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            list(pooled_stream(pipeline, iter(killed), chunk_size=8))


class TestPooledMetrics:
    def test_worker_metrics_fold_into_parent_registry(
            self, small_reference, seedmap, named_tuples,
            counter_deltas):
        registry = get_registry()
        before = registry.snapshot()
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        list(pooled_stream(pipeline, named_tuples, chunk_size=16))
        after = registry.snapshot()
        chunks = -(-len(named_tuples) // 16)
        deltas = counter_deltas(before, after,
                                 ("pipeline.", "executor."))
        assert deltas["pipeline.chunks"] == chunks
        assert deltas["executor.chunks"] == chunks
        assert after["gauges"]["executor.workers"] == 2.0
        hists = after["histograms"]
        waits = (hists["executor.queue_wait_s"]["count"]
                 - before["histograms"].get("executor.queue_wait_s",
                                            {}).get("count", 0))
        assert waits == chunks
        per_worker = [name for name in hists
                      if name.startswith("executor.w")
                      and name.endswith(".chunk_s")]
        assert per_worker  # at least one worker recorded chunk times
        assert (hists["executor.run_s"]["count"]
                > before["histograms"].get("executor.run_s",
                                           {}).get("count", 0))

    def test_counter_folds_bit_identical_serial_vs_pooled(
            self, small_reference, seedmap, named_tuples,
            counter_deltas):
        registry = get_registry()
        deltas = []
        for pooled in (False, True):
            before = registry.snapshot()
            pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
            if pooled:
                list(pooled_stream(pipeline, named_tuples, chunk_size=16))
            else:
                pipeline.map_pairs(named_tuples, chunk_size=16)
            after = registry.snapshot()
            deltas.append(counter_deltas(before, after, "pipeline."))
        assert deltas[0] == deltas[1]
