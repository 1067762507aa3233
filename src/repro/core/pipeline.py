"""The online GenPair pipeline: seed -> query -> filter -> light-align (§4).

This is the paper's Fig 3 dataflow with the Fig 10 fallback arcs:

1. **Partitioned Seeding** extracts and hashes six 50bp seeds per pair;
2. **SeedMap Query** resolves them to implied read-start candidates; pairs
   with no usable seed hits fall back to the traditional full-DP pipeline;
3. **Paired-Adjacency Filtering** keeps joint candidates within Δ; pairs
   with none fall back to the full-DP pipeline;
4. **Light Alignment** aligns both reads DP-free; pairs it cannot handle
   go to *DP alignment at the already-identified candidates* (bypassing
   seeding and chaining — the cheap fallback arc of Fig 10).

Every stage records the counters the hardware model and the Fig 10 / 12
benches consume: locations fetched, filter iterations, light-alignment
attempts, and DP cells for the residual work (GenDP MCUPS sizing, §7.4).

Two execution engines share the exact same per-pair decision logic:

* :meth:`GenPairPipeline.map_pair` — the reference scalar path, one pair
  at a time;
* :meth:`GenPairPipeline.map_batch` — the batched engine, which hashes
  all seeds of a chunk with one vectorized xxHash call, resolves every
  seed against the array-backed SeedMap in one ``searchsorted`` probe,
  and merges candidates batch-wide, only dropping to per-pair Python for
  filtering and alignment.  Results are bit-identical between the two
  engines (asserted in the test suite).

Multi-process execution runs on :class:`StreamExecutor`, a persistent
worker-pool streaming executor: a long-lived pool of forked worker
processes (sharing the parent's SeedMap — including a memory-mapped
index — copy-on-write) is created once per run, fed chunk by chunk
with double-buffered dispatch so the reader stays ahead of the
workers, and an ordered-merge collector yields completed chunks in
input order while later chunks are still in flight.  Both
``map_batch(workers=N)`` and ``map_stream(workers=N)`` dispatch
through it; per-chunk :class:`PipelineStats` are folded into the
parent pipeline once, at pool shutdown.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import time
import traceback
import weakref
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, List, Optional, \
    Sequence, Tuple

import numpy as np

from ..align.banded import align_banded, stack_problems
from ..align.scoring import DEFAULT_SCHEME, HIGH_QUALITY_THRESHOLD, \
    ScoringScheme
from ..genome.cigar import Cigar
from ..genome.io_fasta import read_ahead
from ..genome.reference import ReferenceError, ReferenceGenome
from ..genome.sam import (METHOD_DP, METHOD_EXACT, METHOD_LIGHT,
                          AlignmentRecord)
from ..genome.sequence import reverse_complement
from ..hashing import hash_reads_batch
from ..obs import MetricsRegistry, get_registry, span
from ..util.diagnostics import note
from .light_align import LightAligner
from .pairfilter import DEFAULT_DELTA, filter_adjacent
from .query import QueryResult, query_hash_groups, query_read
from .seedmap import DEFAULT_FILTER_THRESHOLD, SeedMap
from .seeding import (PairSeeds, pair_role_codes, partition_pair,
                      seed_offsets)

#: Stage labels recorded on every mapped pair (Fig 10 vocabulary).
STAGE_LIGHT = "light"            # mapped and aligned by GenPair
STAGE_DP_CANDIDATE = "dp_candidate"  # GenPair placed it, DP aligned it
STAGE_FULL_DP = "full_dp"        # fell back to the traditional pipeline
STAGE_UNMAPPED = "unmapped"

#: Signature of the traditional-pipeline fallback: maps one pair, returns
#: the two records plus the DP cell count it spent, or ``None`` if it
#: could not place the pair either.
FullFallback = Callable[[np.ndarray, np.ndarray, str],
                        Optional[Tuple[AlignmentRecord, AlignmentRecord,
                                       int]]]

#: Default batch granularity of :meth:`GenPairPipeline.map_batch` — big
#: enough to amortize the vectorized hashing/query setup, small enough to
#: keep the gathered location arrays cache-resident.
DEFAULT_BATCH_SIZE = 256

#: Default in-flight chunk budget per worker of :class:`StreamExecutor` —
#: double-buffered dispatch: every worker can have one chunk running and
#: one queued, so finishing a chunk never leaves a worker idle waiting
#: for the reader.
DEFAULT_INFLIGHT_PER_WORKER = 2

#: How many parsed chunks the executor's read-ahead thread keeps ready
#: beyond the submitted ones.
READ_AHEAD_DEPTH = 2


@dataclass(frozen=True)
class GenPairConfig:
    """Tunable parameters of the GenPair pipeline (paper defaults)."""

    seed_length: int = 50
    seeds_per_read: int = 3
    delta: int = DEFAULT_DELTA
    filter_threshold: Optional[int] = DEFAULT_FILTER_THRESHOLD
    max_edits: int = 5
    score_threshold: int = HIGH_QUALITY_THRESHOLD
    fallback_bandwidth: int = 16
    fallback_pad: int = 24
    max_joint_candidates: int = 16
    #: DP fallback alignments below this fraction of the perfect score are
    #: rejected (the pair then goes to the full traditional pipeline).
    min_dp_score_fraction: float = 0.5


@dataclass
class PipelineStats:
    """Aggregate counters across mapped pairs (Fig 10, §7.2, §7.4)."""

    pairs_total: int = 0
    seedmap_fallback: int = 0
    filter_fallback: int = 0
    residual_fallback: int = 0
    light_fallback: int = 0
    light_mapped: int = 0
    exact_pairs: int = 0
    unmapped: int = 0
    locations_fetched: int = 0
    traffic_bytes: int = 0
    filter_iterations: int = 0
    light_attempts: int = 0
    screen_rejections: int = 0
    dp_cells_candidate: int = 0
    dp_cells_full: int = 0

    def merge(self, other: "PipelineStats") -> "PipelineStats":
        """Fold another counter set into this one (sharded workers)."""
        for spec in fields(self):
            setattr(self, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))
        return self

    def fraction(self, count: int) -> float:
        return count / self.pairs_total if self.pairs_total else 0.0

    @property
    def seedmap_fallback_pct(self) -> float:
        """Pairs with no usable SeedMap hits (paper: 2.09%)."""
        return 100.0 * self.fraction(self.seedmap_fallback)

    @property
    def filter_fallback_pct(self) -> float:
        """Pairs rejected by paired-adjacency filtering (paper: 8.79%)."""
        return 100.0 * self.fraction(self.filter_fallback)

    @property
    def light_fallback_pct(self) -> float:
        """Pairs needing DP alignment at candidates (paper: 13.06%)."""
        return 100.0 * self.fraction(self.light_fallback)

    @property
    def genpair_mapped_pct(self) -> float:
        """Pairs placed without the traditional pipeline (paper: 89.1%)."""
        return 100.0 * self.fraction(self.light_mapped
                                     + self.light_fallback)

    @property
    def light_aligned_pct(self) -> float:
        """Pairs fully aligned without any DP (paper: 76.1%)."""
        return 100.0 * self.fraction(self.light_mapped)

    @property
    def mean_light_attempts(self) -> float:
        """Light alignments per pair (paper sizing uses 11.6, §7.2)."""
        return (self.light_attempts / self.pairs_total
                if self.pairs_total else 0.0)


@dataclass
class PairResult:
    """Mapping outcome for one read-pair."""

    name: str
    stage: str
    record1: AlignmentRecord
    record2: AlignmentRecord
    orientation: str = "fr"
    joint_score: int = 0

    @property
    def mapped(self) -> bool:
        return self.stage != STAGE_UNMAPPED


class GenPairPipeline:
    """End-to-end paired-end mapper implementing the GenPair algorithm."""

    def __init__(self, reference: ReferenceGenome,
                 seedmap: Optional[SeedMap] = None,
                 config: Optional[GenPairConfig] = None,
                 scheme: ScoringScheme = DEFAULT_SCHEME,
                 full_fallback: Optional[FullFallback] = None,
                 aligner=None,
                 candidate_screen: Optional[Callable] = None) -> None:
        # Constructed per-instance (config is frozen, but a shared
        # mutable default is a bug class worth keeping out wholesale).
        config = config if config is not None else GenPairConfig()
        self.reference = reference
        self.config = config
        self.scheme = scheme
        self.seedmap = seedmap if seedmap is not None else SeedMap.build(
            reference, seed_length=config.seed_length,
            filter_threshold=config.filter_threshold)
        #: The candidate aligner.  Defaults to the paper's Light
        #: Alignment; any object honouring the same contract —
        #: ``align(codes, window, offset) -> None | hit`` with
        #: ``score``/``cigar``/window-relative ``ref_start`` — plugs in
        #: (see :data:`repro.api.registry.ALIGNERS`).
        self.light_aligner = aligner if aligner is not None else \
            LightAligner(scheme=scheme, max_edits=config.max_edits,
                         threshold=config.score_threshold)
        #: Optional pre-alignment screen ``(codes, window, offset) ->
        #: bool`` applied to every candidate before the aligner (see
        #: :data:`repro.api.registry.FILTER_CHAINS`); rejected
        #: candidates count in ``stats.screen_rejections``.
        self.candidate_screen = candidate_screen
        self.full_fallback = full_fallback
        self.stats = PipelineStats()
        #: Where this pipeline's chunk timings land: the process-wide
        #: registry by default; :func:`_stream_worker` swaps in a fresh
        #: per-chunk registry whose snapshot ships back with the chunk.
        self.obs = get_registry()
        self._chromosome_starts = reference.linear_starts()
        self._fork_note_shown = False

    # -- public API --------------------------------------------------------

    def map_pair(self, read1: np.ndarray, read2: np.ndarray,
                 name: str = "pair") -> PairResult:
        """Map one read-pair through the full GenPair dataflow."""
        orientations = partition_pair(read1, read2,
                                      self.config.seed_length,
                                      self.config.seeds_per_read)
        return self._map_prepared(read1, read2, name, orientations, None)

    def map_pairs(self, pairs: Sequence) -> List[PairResult]:
        """Map a batch; accepts (read1, read2, name) tuples or objects with
        ``read1.codes``/``read2.codes``/``name`` (e.g. SimulatedPair)."""
        return [self.map_pair(read1, read2, name)
                for read1, read2, name in self._normalize_pairs(pairs)]

    def map_batch(self, pairs: Sequence,
                  chunk_size: int = DEFAULT_BATCH_SIZE,
                  workers: Optional[int] = None) -> List[PairResult]:
        """Map pairs through the batched engine (bit-identical results).

        Pairs are processed in chunks of ``chunk_size``: each chunk's
        seeds are hashed with one vectorized call, resolved against the
        SeedMap in one batched probe, and merged into per-read candidate
        lists batch-wide; only adjacency filtering and alignment run
        per-pair.  ``workers=N`` (N > 1) additionally dispatches the
        chunks to a persistent pool of ``N`` forked worker processes
        (:class:`StreamExecutor`), each mapping its chunks with the
        batched engine; per-chunk statistics are folded back into
        :attr:`stats` via :meth:`PipelineStats.merge` when the pool
        shuts down at the end of the call.  Accepts the same inputs as
        :meth:`map_pairs` and returns results in input order.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        items = self._normalize_pairs(pairs)
        if workers is not None and workers > 1 and len(items) > 1:
            return self._map_batch_sharded(items, chunk_size, workers)
        results: List[PairResult] = []
        for start in range(0, len(items), chunk_size):
            results.extend(self._map_chunk(items[start:start + chunk_size]))
        return results

    def map_stream(self, pairs: Iterable,
                   chunk_size: int = DEFAULT_BATCH_SIZE,
                   workers: Optional[int] = None,
                   inflight: Optional[int] = None
                   ) -> Iterator[PairResult]:
        """Map a lazy pair stream, yielding results as chunks finish.

        The streaming face of the batched engine: ``pairs`` may be any
        iterable (e.g. :func:`repro.genome.iter_pairs` over paired
        FASTQ files) and is consumed chunk by chunk, in input order and
        bit-identical to the eager engines, with peak memory bounded
        however large the input — the serving counterpart of a
        memory-mapped index open.

        With ``workers=N`` (N > 1, fork platforms) chunks are
        dispatched to a **persistent worker pool**
        (:class:`StreamExecutor`): the pool is forked once per call —
        not once per buffer — and lives until the stream is exhausted
        or closed.  Double-buffered dispatch keeps up to ``inflight``
        chunks (default ``2 * workers``) submitted while a read-ahead
        thread parses the next chunks, so the reader stays ahead of
        the workers; an ordered-merge collector yields completed
        chunks in input order while later chunks are still in flight.
        Peak memory is O(chunk_size x inflight) pairs plus their
        results.  Per-chunk worker statistics are folded into
        :attr:`stats` once, at pool shutdown (i.e. once the returned
        generator is exhausted or closed).  Where ``fork`` is
        unavailable the stream degrades to the in-process engine with
        a single note per pipeline.

        Unnamed ``(read1, read2)`` tuples are numbered globally across
        the whole stream (``pair0``, ``pair1``, ... never repeat
        between chunks).
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if workers is not None and workers > 1:
            if _fork_context() is not None:
                executor = StreamExecutor(self, workers=workers,
                                          chunk_size=chunk_size,
                                          inflight=inflight)
                try:
                    yield from executor.map(pairs)
                finally:
                    executor.close()
                return
            self._warn_fork_unavailable()
        for chunk in self._chunk_stream(pairs, chunk_size):
            yield from self._map_chunk(chunk)

    # -- batched engine ----------------------------------------------------

    @staticmethod
    def _normalize_pairs(pairs: Sequence, first_index: int = 0
                         ) -> List[Tuple[np.ndarray, np.ndarray, str]]:
        """Coerce pair inputs to ``(read1, read2, name)`` tuples.

        ``first_index`` seats the synthetic-name counter for unnamed
        tuples: streaming callers pass their running pair count so
        ``pair{N}`` names stay unique across chunks instead of
        restarting at ``pair0`` every buffer.
        """
        items = []
        for index, pair in enumerate(pairs, start=first_index):
            if type(pair) is tuple and len(pair) == 3:
                items.append(pair)  # already (read1, read2, name)
            elif hasattr(pair, "read1"):
                items.append((pair.read1.codes, pair.read2.codes,
                              pair.name))
            else:
                read1, read2 = pair[0], pair[1]
                name = pair[2] if len(pair) > 2 else f"pair{index}"
                items.append((read1, read2, name))
        return items

    def _chunk_stream(self, pairs: Iterable, chunk_size: int
                      ) -> Iterator[List[Tuple[np.ndarray, np.ndarray,
                                               str]]]:
        """Chunk a lazy pair stream into normalized task chunks.

        The one chunking loop shared by the serial streaming path and
        the worker-pool executor, so both number synthetic names with
        the same global running offset and flush partial tails the
        same way — keeping their outputs bit-identical by construction.
        """
        chunk: List = []
        consumed = 0
        for pair in pairs:
            chunk.append(pair)
            if len(chunk) >= chunk_size:
                yield self._normalize_pairs(chunk, first_index=consumed)
                consumed += len(chunk)
                chunk = []
        if chunk:
            yield self._normalize_pairs(chunk, first_index=consumed)

    def _map_chunk(self, items: Sequence[Tuple[np.ndarray, np.ndarray,
                                               str]]) -> List[PairResult]:
        """Batch-seed, batch-hash, and batch-query one chunk of pairs.

        The chunk's seed windows are resolved in one batched SeedMap
        probe (:meth:`_resolve_chunk`); the per-pair decision logic
        then runs over the pre-resolved :class:`QueryResult` quadruple
        of each pair.  Stage timings are recorded once per *chunk*
        (``pipeline.seed_query_s`` / ``pipeline.filter_align_s``), so
        instrumentation cost is amortized over the whole batch.
        """
        if not items:
            return []
        obs = self.obs
        timed = obs.enabled
        start = time.perf_counter() if timed else 0.0
        with span("seed.query_batch"):
            queries = self._resolve_chunk(items)
        queried = time.perf_counter() if timed else 0.0
        with span("pair.filter_align"):
            results = []
            for index, (read1, read2, name) in enumerate(items):
                base = 4 * index
                prepared = ((queries[base], queries[base + 1]),
                            (queries[base + 2], queries[base + 3]))
                results.append(self._map_prepared(read1, read2, name,
                                                  _BATCH_ORIENTATIONS,
                                                  prepared))
        if timed:
            done = time.perf_counter()
            obs.histogram("pipeline.seed_query_s").observe(
                queried - start)
            obs.histogram("pipeline.filter_align_s").observe(
                done - queried)
            obs.counter("pipeline.chunks").inc()
            obs.counter("pipeline.pairs").inc(len(items))
        return results

    def _resolve_chunk(self, items: Sequence[Tuple[np.ndarray,
                                                   np.ndarray, str]]
                       ) -> List[QueryResult]:
        """Batched seeding: one chunk's SeedMap queries, pre-resolved.

        The chunk's seed windows are sliced out of one concatenated code
        buffer, hashed with a single vectorized call, and resolved with
        one batched SeedMap probe; returns four :class:`QueryResult`
        entries per pair (roles: fr read1, fr read2, rf read1, rf read2
        — the same seeds :func:`~repro.core.seeding.partition_pair`
        would extract).
        """
        seed_length = self.config.seed_length
        seeds_per_read = self.config.seeds_per_read
        role_codes: List[np.ndarray] = []
        for read1, read2, _ in items:
            role_codes.extend(pair_role_codes(read1, read2))
        offsets_by_length = {}
        role_offsets = []
        for codes in role_codes:
            length = len(codes)
            offsets = offsets_by_length.get(length)
            if offsets is None:
                offsets = seed_offsets(length, seed_length, seeds_per_read)
                offsets_by_length[length] = offsets
            role_offsets.append(offsets)
        lengths = np.array([len(codes) for codes in role_codes],
                           dtype=np.int64)
        sizes = [len(offsets) for offsets in role_offsets]
        flat_offsets = np.array(
            [offset for offsets in role_offsets for offset in offsets],
            dtype=np.int64)
        groups = np.repeat(np.arange(len(role_codes)), sizes)
        buffer = np.concatenate(role_codes)
        if flat_offsets.size and buffer.size >= seed_length:
            bases = np.concatenate(([0], np.cumsum(lengths)[:-1]))
            window_starts = bases[groups] + flat_offsets
            windows = np.lib.stride_tricks.sliding_window_view(
                buffer, seed_length)[window_starts]
            hashes = hash_reads_batch(windows)
        else:
            hashes = np.zeros(0, dtype=np.uint64)
            flat_offsets = flat_offsets[:0]
            groups = groups[:0]
        return query_hash_groups(self.seedmap, hashes, flat_offsets,
                                 groups, len(role_codes), sizes)

    def _map_batch_sharded(self, items, chunk_size: int,
                           workers: int) -> List[PairResult]:
        """Eager multi-process mapping through the persistent executor.

        The same chunks the in-process engine would form are dispatched
        to a :class:`StreamExecutor` pool and collected in order, so
        results and merged statistics are identical to ``workers=None``.
        """
        if _fork_context() is None:
            return self._sharding_unavailable(items, chunk_size)
        # map_batch only dispatches here with workers > 1 and at least
        # two items, so the cap keeps workers >= 2.  Subdivide the
        # dispatch granularity when the whole input fits in one chunk,
        # so every worker still gets a share (chunk boundaries do not
        # change results — asserted in the tests).
        workers = min(workers, len(items))
        dispatch = min(chunk_size, -(-len(items) // workers))
        with StreamExecutor(self, workers=workers,
                            chunk_size=dispatch) as executor:
            return list(executor.map(items))

    def _sharding_unavailable(self, items, chunk_size: int
                              ) -> List[PairResult]:
        """Degrade to the in-process batched engine where fork is missing.

        The pipeline holds closures and array views that do not pickle
        reliably, so on platforms without the ``fork`` start method
        (e.g. Windows) ``workers=N`` maps single-process with a note
        rather than crashing; results are identical either way.
        """
        self._warn_fork_unavailable()
        return self.map_batch(items, chunk_size=chunk_size)

    def _warn_fork_unavailable(self) -> None:
        """Emit the fork-unavailable note once per pipeline, not once
        per flushed buffer — a long stream degrades with a single line
        of stderr instead of one per chunk."""
        if self._fork_note_shown:
            return
        self._fork_note_shown = True
        note("workers>1 needs os.fork, which this platform lacks; "
             "mapping single-process instead")

    # -- shared per-pair dataflow ------------------------------------------

    def _map_prepared(self, read1: np.ndarray, read2: np.ndarray,
                      name: str, orientations: Sequence[PairSeeds],
                      prepared: Optional[Sequence[Tuple[QueryResult,
                                                        QueryResult]]]
                      ) -> PairResult:
        """Seed-to-result dataflow shared by both execution engines.

        ``prepared`` carries pre-resolved SeedMap queries (one
        ``(read1, read2)`` result per orientation) from the batched
        engine; ``None`` makes the scalar engine query inline.  Either
        way an orientation's query statistics are only charged when that
        orientation is actually tried.
        """
        stats = self.stats
        stats.pairs_total += 1
        any_seed_hit = False
        best_filtered: Optional[Tuple[PairSeeds, Tuple[Tuple[int, int],
                                                       ...]]] = None
        for index, pair_seeds in enumerate(orientations):
            if prepared is None:
                result1 = query_read(self.seedmap, pair_seeds.read1)
                result2 = query_read(self.seedmap, pair_seeds.read2)
            else:
                result1, result2 = prepared[index]
            stats.locations_fetched += (result1.locations_fetched
                                        + result2.locations_fetched)
            stats.traffic_bytes += (result1.traffic_bytes
                                    + result2.traffic_bytes)
            if result1.seed_hits and result2.seed_hits:
                any_seed_hit = True
            filtered = filter_adjacent(result1.candidates,
                                       result2.candidates,
                                       delta=self.config.delta,
                                       boundaries=self._chromosome_starts)
            stats.filter_iterations += filtered.iterations
            if filtered.passed:
                best_filtered = (pair_seeds, filtered.pairs)
                break
        if best_filtered is None:
            if not any_seed_hit:
                stats.seedmap_fallback += 1
            else:
                stats.filter_fallback += 1
            return self._full_fallback(read1, read2, name)

        pair_seeds, joint_candidates = best_filtered
        oriented1, oriented2 = self._oriented_codes(read1, read2,
                                                    pair_seeds.orientation)
        light = self._light_align_candidates(oriented1, oriented2,
                                             joint_candidates)
        if light is not None:
            stats.light_mapped += 1
            result = self._build_result(name, STAGE_LIGHT, pair_seeds,
                                        read1, read2, light)
            if result.joint_score == self._perfect_joint(oriented1,
                                                         oriented2):
                stats.exact_pairs += 1
            return result

        dp_hit = self._dp_align_candidates(oriented1, oriented2,
                                           joint_candidates)
        if dp_hit is not None:
            stats.light_fallback += 1
            return self._build_result(name, STAGE_DP_CANDIDATE, pair_seeds,
                                      read1, read2, dp_hit)
        stats.residual_fallback += 1
        return self._full_fallback(read1, read2, name)

    # -- internals ----------------------------------------------------------

    def _perfect_joint(self, oriented1: np.ndarray,
                       oriented2: np.ndarray) -> int:
        """Joint score of an exact pair — each read at its *own* length
        (reads of a pair need not be equally long)."""
        return (self.scheme.perfect_score(len(oriented1))
                + self.scheme.perfect_score(len(oriented2)))

    def _oriented_codes(self, read1: np.ndarray, read2: np.ndarray,
                        orientation: str
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Forward-strand sequences for (upstream, downstream) roles."""
        if orientation == "fr":
            return read1, reverse_complement(read2)
        return read2, reverse_complement(read1)

    def _window(self, candidate: int, read_length: int
                ) -> Optional[Tuple[np.ndarray, int, str, int]]:
        """Reference window around a candidate, clamped to the chromosome.

        Returns ``(window, offset_of_candidate, chromosome, chrom_pos)``.
        """
        pad = max(self.config.max_edits, self.config.fallback_pad)
        try:
            chromosome, pos = self.reference.from_linear(int(candidate))
        except ReferenceError:
            return None
        chrom_len = self.reference.length(chromosome)
        if pos >= chrom_len or pos + read_length > chrom_len + pad:
            return None
        start = max(0, pos - pad)
        end = min(chrom_len, pos + read_length + pad)
        if end - start < read_length:
            return None
        window = self.reference.fetch(chromosome, start, end)
        return window, pos - start, chromosome, pos

    def _light_align_candidates(self, oriented1, oriented2,
                                joint_candidates):
        """Try light alignment at each joint candidate; keep the best."""
        best = None
        cap = self.config.max_joint_candidates
        perfect = self._perfect_joint(oriented1, oriented2)
        for cand1, cand2 in joint_candidates[:cap]:
            self.stats.light_attempts += 2
            hit1 = self._light_at(oriented1, cand1)
            if hit1 is None:
                continue
            hit2 = self._light_at(oriented2, cand2)
            if hit2 is None:
                continue
            joint = (cand1, cand2, hit1, hit2)
            score = hit1[0].score + hit2[0].score
            if best is None or score > best[0]:
                best = (score, joint)
            if score == perfect:
                break
        return None if best is None else best[1]

    def _light_at(self, codes: np.ndarray, candidate: int):
        """Light-align one read at one candidate; window-clamp aware."""
        ctx = self._window(candidate, len(codes))
        if ctx is None:
            return None
        window, offset, chromosome, pos = ctx
        screen = self.candidate_screen
        if screen is not None and not screen(codes, window, offset):
            self.stats.screen_rejections += 1
            return None
        aligner = self.light_aligner
        # A DP-backed stage aligner (e.g. the registry's "banded-dp")
        # accumulates a `cells` counter; charge its per-call delta to
        # the candidate-stage DP accounting so the hardware-model
        # sizing stays honest whichever aligner is plugged in.
        cells_before = getattr(aligner, "cells", 0)
        hit = aligner.align(codes, window, offset)
        cells_delta = getattr(aligner, "cells", 0) - cells_before
        if cells_delta:
            self.stats.dp_cells_candidate += cells_delta
        if hit is None:
            return None
        window_start = pos - offset
        return hit, chromosome, window_start + hit.ref_start

    def _dp_align_candidates(self, oriented1, oriented2, joint_candidates):
        """Banded DP at the filtered candidates (cheap fallback arc).

        One stacked kernel call aligns read 1 at every candidate, a
        second aligns read 2 where read 1 survived — the same problems,
        and so the same ``dp_cells_candidate``, as one candidate at a
        time.
        """
        cap = self.config.max_joint_candidates
        min_score = int(self.config.min_dp_score_fraction
                        * self._perfect_joint(oriented1, oriented2))
        candidates = joint_candidates[:cap]
        hits1 = self._dp_at(oriented1, [cand1 for cand1, _ in candidates])
        survivors = [(pair, hit1) for pair, hit1 in zip(candidates, hits1)
                     if hit1 is not None]
        hits2 = self._dp_at(oriented2,
                            [cand2 for (_, cand2), _ in survivors])
        best = None
        for ((cand1, cand2), hit1), hit2 in zip(survivors, hits2):
            if hit2 is None:
                continue
            score = hit1[0].score + hit2[0].score
            if score < min_score:
                continue
            if best is None or score > best[0]:
                best = (score, (cand1, cand2, hit1, hit2))
        return None if best is None else best[1]

    def _dp_at(self, codes: np.ndarray, candidates: Sequence[int]) -> list:
        """Banded DP of one read at each candidate: a hit or ``None``
        per candidate, in order."""
        contexts = [self._window(candidate, len(codes))
                    for candidate in candidates]
        hits: list = [None] * len(contexts)
        for members, reads, windows, diagonal, bandwidth in stack_problems(
                [None if ctx is None else
                 (codes, ctx[0], ctx[1], self.config.fallback_bandwidth)
                 for ctx in contexts]):
            stack = align_banded(reads, windows, scheme=self.scheme,
                                 diagonal=diagonal, bandwidth=bandwidth)
            for k, result in zip(members, stack):
                self.stats.dp_cells_candidate += result.cells
                if result.score >= 0:
                    _, offset, chromosome, pos = contexts[k]
                    hits[k] = (result, chromosome,
                               pos + result.ref_start - offset)
        return hits

    def _build_result(self, name: str, stage: str, pair_seeds: PairSeeds,
                      read1: np.ndarray, read2: np.ndarray,
                      joint) -> PairResult:
        cand1, cand2, hit1, hit2 = joint
        method = METHOD_LIGHT if stage == STAGE_LIGHT else METHOD_DP
        rec_up = self._record(name, hit1, read_codes=None, mate=0,
                              strand="+", method=method, stage=stage)
        rec_down = self._record(name, hit2, read_codes=None, mate=0,
                                strand="-", method=method, stage=stage)
        if pair_seeds.orientation == "fr":
            rec_up.query_name = f"{name}/1"
            rec_up.mate = 1
            rec_up.read_codes = read1
            rec_down.query_name = f"{name}/2"
            rec_down.mate = 2
            rec_down.read_codes = read2
            record1, record2 = rec_up, rec_down
        else:
            # Reverse fragment: physical read 2 is upstream/forward.
            rec_up.query_name = f"{name}/2"
            rec_up.mate = 2
            rec_up.read_codes = read2
            rec_down.query_name = f"{name}/1"
            rec_down.mate = 1
            rec_down.read_codes = read1
            record1, record2 = rec_down, rec_up
        record1.set_mate(record2)
        record2.set_mate(record1)
        joint_score = self._hit_score(hit1) + self._hit_score(hit2)
        return PairResult(name=name, stage=stage, record1=record1,
                          record2=record2,
                          orientation=pair_seeds.orientation,
                          joint_score=joint_score)

    @staticmethod
    def _hit_score(hit) -> int:
        return hit[0].score

    def _record(self, name: str, hit, read_codes, mate: int, strand: str,
                method: str, stage: str) -> AlignmentRecord:
        alignment, chromosome, position = hit[0], hit[1], hit[2]
        cigar = alignment.cigar
        if method == METHOD_LIGHT and cigar.edit_runs == ():
            method = METHOD_EXACT
        return AlignmentRecord(query_name=name, chromosome=chromosome,
                               position=int(position), strand=strand,
                               mapq=60, cigar=cigar,
                               score=alignment.score,
                               read_codes=read_codes, mate=mate,
                               mapped=True, method=method)

    def _full_fallback(self, read1: np.ndarray, read2: np.ndarray,
                       name: str) -> PairResult:
        if self.full_fallback is not None:
            outcome = self.full_fallback(read1, read2, name)
            if outcome is not None:
                record1, record2, cells = outcome
                self.stats.dp_cells_full += cells
                score = record1.score + record2.score
                return PairResult(name=name, stage=STAGE_FULL_DP,
                                  record1=record1, record2=record2,
                                  joint_score=score)
        self.stats.unmapped += 1
        unmapped1 = AlignmentRecord(query_name=f"{name}/1", mapped=False,
                                    read_codes=read1, mate=1)
        unmapped2 = AlignmentRecord(query_name=f"{name}/2", mapped=False,
                                    read_codes=read2, mate=2)
        return PairResult(name=name, stage=STAGE_UNMAPPED,
                          record1=unmapped1, record2=unmapped2)


#: Seedless orientation stand-ins for the batched engine: the per-pair
#: dataflow only needs the orientation label once queries are
#: pre-resolved, so every pair shares these two frozen instances.
_BATCH_ORIENTATIONS = (PairSeeds(read1=(), read2=(), orientation="fr"),
                       PairSeeds(read1=(), read2=(), orientation="rf"))

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
                # Chunks arrive already normalized by _chunk_stream, so
                # go straight to the batch engine (same entry the
                # serial streaming path uses).
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

    The concurrency engine behind ``map_stream(workers=N)`` and
    ``map_batch(workers=N)``: ``workers`` processes are forked **once**
    at construction (inheriting the pipeline — SeedMap, reference
    views, fallback closures — copy-on-write) and then serve arbitrarily
    many chunks until :meth:`close`, instead of a fresh pool being
    built and torn down per flushed buffer.

    :meth:`map` feeds the pool with double-buffered dispatch — up to
    ``inflight`` chunks (default ``2 * workers``) are submitted while a
    read-ahead thread parses the next ones — and merges completed
    chunks back **in input order** while later chunks are still being
    mapped, so results are bit-identical to the serial engines.  Peak
    memory is O(chunk_size x inflight) pairs plus their results.

    Worker statistics are accumulated executor-side and folded into
    ``pipeline.stats`` exactly once, at :meth:`close` (which the
    ``with`` statement and ``map_stream`` call for you).  A worker that
    raises surfaces the original traceback as a ``RuntimeError`` at the
    failing chunk's position in the output; a worker that *dies* (OOM
    kill, segfault, ``os._exit``) is detected by liveness polling and
    aborts the stream with a clear error instead of hanging.
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

    def map(self, pairs: Iterable) -> Iterator[PairResult]:
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
            self.pipeline._chunk_stream(pairs, self.chunk_size),
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
                self._stats.merge(stats)
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
        self.pipeline.stats.merge(self._stats)
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
            self.pipeline.stats.merge(self._stats)
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
