"""The persistent worker pool: the one way to get worker processes.

:class:`StreamExecutor` forks a long-lived pool of worker processes
(sharing the parent's pipeline — SeedMap, memory-mapped index views,
the fallback mapper — copy-on-write) once, feeds it chunk by chunk with
double-buffered dispatch so the reader stays ahead of the workers, and
merges completed chunks back in input order while later chunks are
still in flight.  Every worker maps its chunks with
:meth:`GenPairPipeline._map_chunk <repro.core.pipeline.GenPairPipeline>`
— the same dataflow the in-process path runs — so pooled output is
bit-identical to serial output; per-chunk :class:`PipelineStats` and
metrics snapshots are folded into the parent pipeline at
:meth:`StreamExecutor.fold_stats` / :meth:`StreamExecutor.close`.

:class:`repro.api.engines.GenPairEngine` is the one place under
``src/`` that constructs an executor; :func:`pool_available` is the one
"is there a pool?" predicate it, :attr:`repro.api.Mapper.uses_pool`
and the CLI ask.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import time
import traceback
import weakref
from typing import Iterable, Iterator, List, Optional

from ..genome.io_fasta import read_ahead
from ..genome.results import MappingResult
from ..obs import MetricsRegistry
from .pipeline import (DEFAULT_BATCH_SIZE, GenPairPipeline, PipelineStats,
                       chunked, merge_stats, normalize_pairs)

#: Default in-flight chunk budget per worker of :class:`StreamExecutor` —
#: double-buffered dispatch: every worker can have one chunk running and
#: one queued, so finishing a chunk never leaves a worker idle waiting
#: for the reader.
DEFAULT_INFLIGHT_PER_WORKER = 2

#: How many parsed chunks the executor's read-ahead thread keeps ready
#: beyond the submitted ones.
READ_AHEAD_DEPTH = 2

#: Fork-inherited state for :class:`StreamExecutor`: ``token ->
#: pipeline`` registered by the parent just before its worker pool
#: forks (children inherit the snapshot — including closures and
#: memory-mapped index views that would not pickle), removed when the
#: executor closes.
_FORK_STATE: dict = {}
_FORK_TOKENS = itertools.count()


def _fork_context():
    """The ``fork`` multiprocessing context, or ``None`` where the
    platform does not support it (e.g. Windows)."""
    if not hasattr(os, "fork"):
        return None
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def pool_available(workers: int) -> bool:
    """Will a run configured with ``workers`` get a forked pool?

    The one "is there a pool?" predicate: more than one worker, on a
    platform with the ``fork`` start method (the pipeline holds
    closures and array views that do not pickle reliably, so without
    ``fork`` mapping stays in-process; results are identical either
    way).
    """
    return workers > 1 and _fork_context() is not None


class _WorkerFailure:
    """Pickled stand-in for an exception raised inside a stream worker,
    carrying the formatted worker-side traceback."""

    def __init__(self, details: str) -> None:
        self.details = details


def _stream_worker(token: int, number: int, tasks, results) -> None:
    """Worker main loop: map task chunks until the ``None`` sentinel.

    Each task is ``(key, enqueued_at, items)`` with ``key`` echoed back
    verbatim (the parent keys chunks ``(epoch, seq)``) and
    ``enqueued_at`` a ``time.monotonic()`` stamp (system-wide on the
    fork platforms this runs on, so the queue-wait delta is meaningful
    across the process boundary; ``perf_counter`` is per-process).
    The pipeline arrives fork-inherited via :data:`_FORK_STATE`, so
    the worker shares the parent's SeedMap (including memory-mapped
    index arrays) copy-on-write.  Statistics — and a fresh per-chunk
    metrics registry of plain fork-safe counters — are reset per chunk
    and shipped back alongside the results; an exception becomes a
    :class:`_WorkerFailure` for that chunk and the worker keeps
    serving later ones.
    """
    pipeline = _FORK_STATE[token]
    try:
        while True:
            task = tasks.get()
            if task is None:
                return
            key, enqueued_at, items = task
            wait_s = time.monotonic() - enqueued_at
            pipeline.stats = PipelineStats()
            pipeline.obs = obs = MetricsRegistry()
            try:
                # Chunks arrive already normalized by the parent, so
                # go straight to the chunk dataflow (same entry the
                # in-process path uses).
                started = time.perf_counter()
                mapped = pipeline._map_chunk(items)
                chunk_s = time.perf_counter() - started
            except Exception:
                results.put((key, _WorkerFailure(traceback.format_exc())))
                continue
            if obs.enabled:
                obs.histogram("executor.queue_wait_s").observe(wait_s)
                obs.histogram("executor.chunk_s").observe(chunk_s)
                obs.histogram(f"executor.w{number}.chunk_s").observe(
                    chunk_s)
                obs.counter("executor.chunks").inc()
            results.put((key, (mapped, pipeline.stats, obs.snapshot())))
    except KeyboardInterrupt:
        return


def _reap_executor(processes, tasks, results, token) -> None:
    """GC fallback for an un-close()d :class:`StreamExecutor`: kill the
    workers, release the queue pipes, and drop the ``_FORK_STATE`` pin.
    Takes the resources (not the executor) so the finalizer holds no
    reference that would keep the executor alive."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=1.0)
    for channel in (tasks, results):
        channel.cancel_join_thread()
        channel.close()
    _FORK_STATE.pop(token, None)


class StreamExecutor:
    """Persistent worker-pool streaming executor for a pipeline.

    ``workers`` processes are forked **once** at construction
    (inheriting the pipeline — SeedMap, reference views, the fallback
    mapper — copy-on-write) and then serve arbitrarily many chunks
    until :meth:`close`, instead of a fresh pool being built and torn
    down per flushed buffer.

    :meth:`map` feeds the pool with double-buffered dispatch — up to
    ``inflight`` chunks (default ``2 * workers``) are submitted while a
    read-ahead thread parses the next ones — and merges completed
    chunks back **in input order** while later chunks are still being
    mapped, so results are bit-identical to the in-process path.  Peak
    memory is O(chunk_size x inflight) pairs plus their results.

    Worker statistics are accumulated executor-side and folded into
    ``pipeline.stats`` exactly once, at :meth:`close` (which the
    ``with`` statement calls for you).  A worker that raises surfaces
    the original traceback as a ``RuntimeError`` at the failing chunk's
    position in the output; a worker that *dies* (OOM kill, segfault,
    ``os._exit``) is detected by liveness polling and aborts the stream
    with a clear error instead of hanging.
    """

    def __init__(self, pipeline: GenPairPipeline, workers: int,
                 chunk_size: int = DEFAULT_BATCH_SIZE,
                 inflight: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if inflight is None:
            inflight = DEFAULT_INFLIGHT_PER_WORKER * workers
        if inflight < workers:
            raise ValueError("inflight must be at least workers")
        context = _fork_context()
        if context is None:
            raise RuntimeError("StreamExecutor requires the 'fork' "
                               "multiprocessing start method")
        self.pipeline = pipeline
        self.chunk_size = chunk_size
        self.inflight = inflight
        self._token = next(_FORK_TOKENS)
        self._stats = PipelineStats()
        # Worker metrics snapshots accumulate here (merged in chunk
        # order at the ordered-merge point) and fold into the
        # pipeline's registry with the stats, at fold_stats()/close().
        self._obs = MetricsRegistry()
        self._closed = False
        self._mapping = False
        self._abandoned = 0
        self._epoch = 0
        self._processes: List = []
        # Queues first (a failure here leaves nothing registered),
        # then the fork-inherited state, then fork every worker up
        # front from the (still single-threaded) parent — the queues
        # exist but have no feeder threads until the first put.
        self._tasks = context.Queue()
        self._results = context.Queue()
        _FORK_STATE[self._token] = pipeline
        # Safety net for executors that are never close()d: reap the
        # worker processes, queue pipes, and the _FORK_STATE pin at
        # garbage collection instead of leaking them for the life of
        # the interpreter.  close() detaches this.
        self._finalizer = weakref.finalize(
            self, _reap_executor, self._processes, self._tasks,
            self._results, self._token)
        try:
            for number in range(workers):
                process = context.Process(
                    target=_stream_worker,
                    args=(self._token, number, self._tasks,
                          self._results),
                    name=f"repro-stream-worker-{number}", daemon=True)
                process.start()
                self._processes.append(process)
        except BaseException:
            self.close()
            raise
        if pipeline.obs.enabled:
            pipeline.obs.gauge("executor.workers").set(
                len(self._processes))

    @property
    def workers(self) -> int:
        return len(self._processes)

    def map(self, pairs: Iterable) -> Iterator[MappingResult]:
        """Map a pair iterable through the pool, in input order.

        May be called repeatedly on one executor (the pool persists
        between calls), but not concurrently and not after
        :meth:`close`.  Fully consuming or closing the returned
        generator leaves the pool idle and reusable.
        """
        if self._closed:
            raise RuntimeError("StreamExecutor is closed")
        if self._mapping:
            raise RuntimeError("StreamExecutor.map is already running")
        self._mapping = True
        # Chunks are keyed (epoch, seq): a map() generator closed early
        # leaves its in-flight chunks completing in the background, and
        # the epoch lets a later map() call discard those stale results
        # instead of merging them into its own stream.
        self._epoch += 1
        epoch = self._epoch
        chunks = read_ahead(
            chunked(pairs, self.chunk_size, normalize_pairs),
            depth=READ_AHEAD_DEPTH)
        buffered: dict = {}
        submitted = 0
        next_seq = 0
        exhausted = False
        source_error: Optional[Exception] = None
        obs = self.pipeline.obs
        run_started = time.perf_counter()
        try:
            while True:
                if self._closed:
                    raise RuntimeError("StreamExecutor was closed while "
                                       "its map() stream was active")
                while not exhausted and submitted - next_seq \
                        < self.inflight:
                    try:
                        chunk = next(chunks, None)
                    except Exception as exc:
                        # The source (e.g. a truncated FASTQ) failed:
                        # drain the in-flight chunks first so every
                        # already-mapped pair is yielded — matching
                        # what the serial path emits before the same
                        # error — then re-raise.
                        source_error = exc
                        chunk = None
                    if chunk is None:
                        exhausted = True
                        break
                    self._tasks.put(((epoch, submitted),
                                     time.monotonic(), chunk))
                    submitted += 1
                    if obs.enabled:
                        # In-flight chunks after this submit: how far
                        # the dispatcher runs ahead of the collector.
                        obs.histogram("executor.dispatch_depth") \
                            .observe(submitted - next_seq)
                if next_seq == submitted:
                    break
                while next_seq not in buffered:
                    (got_epoch, seq), payload = self._next_result()
                    if got_epoch != epoch:
                        continue  # stale chunk of an abandoned run
                    buffered[seq] = payload
                payload = buffered.pop(next_seq)
                if isinstance(payload, _WorkerFailure):
                    raise RuntimeError(
                        f"streaming worker failed on chunk {next_seq}; "
                        f"worker traceback:\n{payload.details}")
                next_seq += 1
                results, stats, obs_snapshot = payload
                merge_stats(self._stats, stats)
                self._obs.merge_snapshot(obs_snapshot)
                yield from results
            if source_error is not None:
                raise source_error
        finally:
            # Accumulated, not overwritten: chunks abandoned by an
            # earlier early-closed run keep counting, so close() still
            # takes the terminate path even if a later run completes.
            self._abandoned += submitted - next_seq - len(buffered)
            self._mapping = False
            chunks.close()
            if obs.enabled:
                obs.histogram("executor.run_s").observe(
                    time.perf_counter() - run_started)

    def fold_stats(self) -> None:
        """Fold worker statistics accumulated so far into the pipeline.

        Stats normally fold once, at :meth:`close`; a long-lived
        executor reused across runs (the :class:`repro.api.Mapper`
        facade keeps one pool warm for its whole lifetime) calls this
        after each completed run so per-run statistics are observable
        while the pool stays up.  Safe to call between runs only —
        never while a :meth:`map` stream is active.
        """
        if self._mapping:
            raise RuntimeError("cannot fold stats while a map() stream "
                               "is active")
        merge_stats(self.pipeline.stats, self._stats)
        self._stats = PipelineStats()
        self.pipeline.obs.merge_snapshot(self._obs.snapshot())
        self._obs = MetricsRegistry()

    def close(self) -> None:
        """Shut the pool down and fold worker stats into the pipeline.

        Graceful when the stream completed (sentinels, then join);
        abandoned or failed streams terminate the workers instead so
        teardown — e.g. on Ctrl-C — does not wait for chunks nobody
        will consume.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        try:
            # An active map() generator counts as abandoned work: its
            # chunks are still in flight and nobody will drain them
            # (the generator raises on resume once _closed is set).
            if self._abandoned or self._mapping:
                for process in self._processes:
                    process.terminate()
            else:
                for _ in self._processes:
                    self._tasks.put(None)
            for process in self._processes:
                process.join(timeout=10.0)
            for process in self._processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=10.0)
        finally:
            self._finalizer.detach()
            self._tasks.cancel_join_thread()
            self._tasks.close()
            self._results.cancel_join_thread()
            self._results.close()
            _FORK_STATE.pop(self._token, None)
            merge_stats(self.pipeline.stats, self._stats)
            self._stats = PipelineStats()
            self.pipeline.obs.merge_snapshot(self._obs.snapshot())
            self._obs = MetricsRegistry()

    def __enter__(self) -> "StreamExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _next_result(self):
        """Wait for any worker's next chunk, polling worker liveness so
        a dead worker aborts the stream instead of hanging it."""
        while True:
            try:
                return self._results.get(timeout=0.1)
            except queue_module.Empty:
                self._check_workers()

    def _check_workers(self) -> None:
        for process in self._processes:
            if not process.is_alive():
                raise RuntimeError(
                    f"streaming worker {process.name} "
                    f"(pid {process.pid}) exited with code "
                    f"{process.exitcode} while chunks were in flight; "
                    "its results are lost — aborting the stream")
