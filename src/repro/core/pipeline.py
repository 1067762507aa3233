"""The online GenPair pipeline: seed -> query -> filter -> light-align (§4).

This is the paper's Fig 3 dataflow with the Fig 10 fallback arcs:

1. **Partitioned Seeding** extracts and hashes six 50bp seeds per pair;
2. **SeedMap Query** resolves them to implied read-start candidates; pairs
   with no usable seed hits fall back to the traditional full-DP pipeline
   (``fallback=``, a :class:`~repro.mapper.mm2.Mm2LikeMapper`);
3. **Paired-Adjacency Filtering** keeps joint candidates within Δ; pairs
   with none fall back to the full-DP pipeline;
4. **Light Alignment** aligns both reads DP-free; pairs it cannot handle
   go to *DP alignment at the already-identified candidates* (bypassing
   seeding and chaining — the cheap fallback arc of Fig 10).

Every stage records the counters the hardware model and the Fig 10 / 12
benches consume: locations fetched, filter iterations, light-alignment
attempts, and DP cells for the residual work (GenDP MCUPS sizing, §7.4).

There is one dataflow, and it is chunked
(:meth:`GenPairPipeline._map_chunk`): all seeds of a chunk are hashed
with one vectorized xxHash call, resolved against the array-backed
SeedMap in one ``searchsorted`` probe and merged into per-read
candidate lists chunk-wide (:func:`repro.core.query.resolve_reads`, the
front-end the long-read mode shares); filtering and light alignment run
per pair; the pairs light alignment cannot settle meet again in two
chunk-wide candidate-DP waves (read 1 at every candidate, read 2 where
read 1 survived: one :func:`align_banded` sweep per window shape, cut by
:func:`~repro.align.banded.stack_problems`'s cell budget), and the
chunk's residue goes to the fallback mapper's ``map_pairs`` in one call.
Every pair comes out as a
:class:`~repro.genome.results.MappingResult`.
:meth:`~GenPairPipeline.map_pair` is a chunk of one,
:meth:`~GenPairPipeline.map_pairs` the eager form and
:meth:`~GenPairPipeline.map_stream` the lazy one; chunk boundaries never
change results.  The per-seed scalar reference the chunk seeding is
tested against lives in ``tests/oracles/core.py``; worker processes are
:mod:`repro.core.executor`'s business.

Coordinates: candidates are *linear* implied read starts up to and
including the adjacency filter, whose chromosome boundaries are
:meth:`~repro.genome.ReferenceGenome.read_boundaries`; from
:meth:`GenPairPipeline._window` — one
:meth:`~repro.genome.ReferenceGenome.window` call — on, light alignment,
candidate DP and the records speak ``(chromosome, position)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, List, NamedTuple, \
    Optional, Sequence, Tuple, Union

import numpy as np

from ..align.banded import align_banded, stack_problems
from ..align.scoring import DEFAULT_SCHEME, HIGH_QUALITY_THRESHOLD, \
    ScoringScheme
from ..genome.reference import ReferenceGenome
from ..genome.results import MappingResult
from ..genome.sam import (METHOD_DP, METHOD_EXACT, METHOD_LIGHT,
                          AlignmentRecord)
from ..genome.sequence import reverse_complement
from ..obs import get_registry, span
from .light_align import LightAligner
from .pairfilter import DEFAULT_DELTA, filter_adjacent
from .query import QueryResult, resolve_reads
from .seedmap import DEFAULT_FILTER_THRESHOLD, SeedMap
from .seeding import pair_role_codes

#: Stage labels recorded on every mapped pair (Fig 10 vocabulary).
STAGE_LIGHT = "light"            # mapped and aligned by GenPair
STAGE_DP_CANDIDATE = "dp_candidate"  # GenPair placed it, DP aligned it
STAGE_FULL_DP = "full_dp"        # fell back to the traditional pipeline
STAGE_UNMAPPED = "unmapped"

#: Default chunk size — big enough to amortize the vectorized
#: hashing/query setup, small enough to keep the gathered location
#: arrays cache-resident.
DEFAULT_BATCH_SIZE = 256

#: The fragment orientations a pair is tried in, in order: ``"fr"``
#: (read 1 forward / read 2 reverse, the dominant Illumina case) first.
ORIENTATIONS = ("fr", "rf")


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
    dp_cells_candidate: int = 0
    dp_cells_full: int = 0

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


def merge_stats(total, run) -> None:
    """Fold one flat integer-counter dataclass into another in place.

    Works for any engine's stats dataclass (:class:`PipelineStats`,
    ``MapperStats``, ``LongReadStats``) as long as the fields are
    numeric: pooled workers' per-chunk counters fold into the parent
    pipeline with it, per-run counters into the facade's totals.
    """
    for spec in fields(run):
        setattr(total, spec.name,
                getattr(total, spec.name) + getattr(run, spec.name))


def normalize_pairs(pairs: Iterable, first_index: int = 0
                    ) -> List[Tuple[np.ndarray, np.ndarray, str]]:
    """Coerce pair inputs to ``(read1, read2, name)`` tuples.

    Accepts ``(read1, read2[, name])`` tuples and objects with
    ``read1.codes``/``read2.codes``/``name`` (e.g. ``SimulatedPair``).
    ``first_index`` seats the synthetic-name counter for unnamed
    tuples: :func:`chunked` passes its running pair count so
    ``pair{N}`` names stay unique across chunks instead of restarting
    at ``pair0`` every chunk.
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


def chunked(items: Iterable, chunk_size: int,
            normalize: Callable[[List, int], List]) -> Iterator[List]:
    """Chunk a lazy item stream through ``normalize(chunk, consumed)``.

    The one chunk-and-number loop every engine and the worker pool
    share: ``consumed`` is the running item count, so unnamed items are
    numbered globally across the whole stream, and partial tails flush
    the same way everywhere — which keeps in-process and pooled output
    bit-identical by construction.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    chunk: List = []
    consumed = 0
    for item in items:
        chunk.append(item)
        if len(chunk) >= chunk_size:
            yield normalize(chunk, consumed)
            consumed += len(chunk)
            chunk = []
    if chunk:
        yield normalize(chunk, consumed)


class _Pending(NamedTuple):
    """A pair filtering placed and light alignment could not align: its
    order for candidate DP (:meth:`GenPairPipeline._dp_align_candidates`)."""

    orientation: str
    oriented1: np.ndarray
    oriented2: np.ndarray
    #: ``(candidate 1, candidate 2)`` linear starts, at most
    #: ``max_joint_candidates`` of them.
    candidates: Sequence[Tuple[int, int]]


class GenPairPipeline:
    """End-to-end paired-end mapper implementing the GenPair algorithm."""

    def __init__(self, reference: ReferenceGenome,
                 seedmap: Optional[SeedMap] = None,
                 config: Optional[GenPairConfig] = None,
                 scheme: ScoringScheme = DEFAULT_SCHEME,
                 fallback=None) -> None:
        # Constructed per-instance (config is frozen, but a shared
        # mutable default is a bug class worth keeping out wholesale).
        config = config if config is not None else GenPairConfig()
        self.reference = reference
        self.config = config
        self.scheme = scheme
        self.seedmap = seedmap if seedmap is not None else SeedMap.build(
            reference, seed_length=config.seed_length,
            filter_threshold=config.filter_threshold)
        self.light_aligner = LightAligner(
            scheme=scheme, max_edits=config.max_edits,
            threshold=config.score_threshold)
        #: A :class:`~repro.mapper.mm2.Mm2LikeMapper` for the pairs
        #: GenPair cannot place, or ``None`` to emit them unmapped.
        self.fallback = fallback
        self.stats = PipelineStats()
        #: Where this pipeline's chunk timings land: the process-wide
        #: registry by default; a pool worker
        #: (:mod:`repro.core.executor`) swaps in a fresh per-chunk
        #: registry whose snapshot ships back with the chunk.
        self.obs = get_registry()
        self._window_pad = max(config.max_edits, config.fallback_pad)

    # -- public API --------------------------------------------------------

    def map_pair(self, read1: np.ndarray, read2: np.ndarray,
                 name: str = "pair") -> MappingResult:
        """Map one read-pair: a chunk of one."""
        return self._map_chunk([(read1, read2, name)])[0]

    def map_pairs(self, pairs: Iterable,
                  chunk_size: int = DEFAULT_BATCH_SIZE
                  ) -> List[MappingResult]:
        """Map pairs eagerly; returns results in input order.

        Accepts ``(read1, read2[, name])`` tuples or objects with
        ``read1.codes``/``read2.codes``/``name`` (e.g. SimulatedPair).
        """
        return list(self.map_stream(pairs, chunk_size))

    def map_stream(self, pairs: Iterable,
                   chunk_size: int = DEFAULT_BATCH_SIZE
                   ) -> Iterator[MappingResult]:
        """Map a lazy pair stream, yielding results as chunks finish.

        ``pairs`` may be any iterable (e.g.
        :func:`repro.genome.iter_pairs` over paired FASTQ files) and is
        consumed chunk by chunk, in input order, with peak memory
        bounded however large the input — the serving counterpart of a
        memory-mapped index open.  Unnamed ``(read1, read2)`` tuples
        are numbered globally across the whole stream (``pair0``,
        ``pair1``, ... never repeat between chunks).
        """
        for chunk in chunked(pairs, chunk_size, normalize_pairs):
            yield from self._map_chunk(chunk)

    # -- chunk dataflow ----------------------------------------------------

    def _map_chunk(self, items: Sequence[Tuple[np.ndarray, np.ndarray,
                                               str]]
                   ) -> List[MappingResult]:
        """Batch-seed, batch-hash, and batch-query one chunk of pairs.

        The four role sequences of every pair
        (:func:`~repro.core.seeding.pair_role_codes` order: fr read1,
        fr read2, rf read1, rf read2) are resolved in one batched
        SeedMap probe (:func:`~repro.core.query.resolve_reads`) and
        the chunk decided from them (:meth:`_map_resolved`).  Stage
        timings are recorded once per *chunk*
        (``pipeline.seed_query_s`` / ``pipeline.filter_align_s``), so
        instrumentation cost is amortized over the whole batch.
        """
        obs = self.obs
        timed = obs.enabled
        start = time.perf_counter() if timed else 0.0
        with span("seed.query_batch"):
            queries = resolve_reads(
                self.seedmap,
                [codes for read1, read2, _ in items
                 for codes in pair_role_codes(read1, read2)],
                self.config.seed_length, self.config.seeds_per_read)
        queried = time.perf_counter() if timed else 0.0
        with span("pair.filter_align"):
            results = self._map_resolved(items, queries)
        if timed:
            done = time.perf_counter()
            obs.histogram("pipeline.seed_query_s").observe(
                queried - start)
            obs.histogram("pipeline.filter_align_s").observe(
                done - queried)
            obs.counter("pipeline.chunks").inc()
            obs.counter("pipeline.pairs").inc(len(items))
        return results

    def _map_resolved(self, items: Sequence[Tuple[np.ndarray, np.ndarray,
                                                  str]],
                      queries: Sequence[QueryResult]
                      ) -> List[MappingResult]:
        """Query-results-to-mapping decision for a chunk; ``queries``
        holds four results per pair in
        :func:`~repro.core.seeding.pair_role_codes` order.

        Filtering and light alignment settle most pairs one by one
        (:meth:`_map_prepared`).  The pairs left with candidates but no
        light alignment get candidate DP together
        (:meth:`_dp_align_candidates`), and what neither places goes on
        together too (:meth:`_fall_back`).
        """
        stats = self.stats
        results: list = []
        pending = []
        residue = []
        for index, (read1, read2, name) in enumerate(items):
            base = 4 * index
            result = self._map_prepared(
                read1, read2, name, ((queries[base], queries[base + 1]),
                                     (queries[base + 2], queries[base + 3])))
            if result is None:
                residue.append(index)
            elif type(result) is _Pending:
                pending.append((index, result))
            results.append(result)
        if pending:
            for (index, work), dp_hit in zip(
                    pending, self._dp_align_candidates(
                        [work for _index, work in pending])):
                if dp_hit is None:
                    stats.residual_fallback += 1
                    residue.append(index)
                    continue
                stats.light_fallback += 1
                read1, read2, name = items[index]
                results[index] = self._build_result(
                    name, STAGE_DP_CANDIDATE, work.orientation, read1,
                    read2, dp_hit)
            residue.sort()
        if residue:
            for index, result in zip(residue, self._fall_back(
                    [items[index] for index in residue])):
                results[index] = result
        return results

    # -- per-pair decision -------------------------------------------------

    def _map_prepared(self, read1: np.ndarray, read2: np.ndarray,
                      name: str,
                      prepared: Sequence[Tuple[QueryResult, QueryResult]]
                      ) -> Union[MappingResult, _Pending, None]:
        """Filtering and light alignment of one pair: its
        :class:`MappingResult`, or a :class:`_Pending` order for
        candidate DP, or ``None`` to send it to the traditional pipeline
        (:meth:`_fall_back`).

        ``prepared`` carries the pair's pre-resolved SeedMap queries,
        one ``(read1, read2)`` result per entry of :data:`ORIENTATIONS`;
        an orientation's query statistics are only charged when that
        orientation is actually tried.
        """
        stats = self.stats
        stats.pairs_total += 1
        # One boundary array serves both candidate lists: the shorter
        # read's, so no start changes chromosome beyond its own middle.
        boundaries = self.reference.read_boundaries(min(len(read1),
                                                        len(read2)))
        any_seed_hit = False
        best_filtered: Optional[Tuple[str, Tuple[Tuple[int, int],
                                                 ...]]] = None
        for orientation, (result1, result2) in zip(ORIENTATIONS, prepared):
            stats.locations_fetched += (result1.locations_fetched
                                        + result2.locations_fetched)
            stats.traffic_bytes += (result1.traffic_bytes
                                    + result2.traffic_bytes)
            if result1.seed_hits and result2.seed_hits:
                any_seed_hit = True
            filtered = filter_adjacent(result1.candidates,
                                       result2.candidates,
                                       delta=self.config.delta,
                                       boundaries=boundaries)
            stats.filter_iterations += filtered.iterations
            if filtered.passed:
                best_filtered = (orientation, filtered.pairs)
                break
        if best_filtered is None:
            if not any_seed_hit:
                stats.seedmap_fallback += 1
            else:
                stats.filter_fallback += 1
            return None

        orientation, joint_candidates = best_filtered
        oriented1, oriented2 = self._oriented_codes(read1, read2,
                                                    orientation)
        light = self._light_align_candidates(oriented1, oriented2,
                                             joint_candidates)
        if light is not None:
            stats.light_mapped += 1
            result = self._build_result(name, STAGE_LIGHT, orientation,
                                        read1, read2, light)
            if result.joint_score == self._perfect_joint(oriented1,
                                                         oriented2):
                stats.exact_pairs += 1
            return result
        return _Pending(orientation, oriented1, oriented2,
                        joint_candidates[:self.config.max_joint_candidates])

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
                ) -> Optional[Tuple[np.ndarray, str, int, int]]:
        """:meth:`ReferenceGenome.window` around a candidate: room for
        the edit budget either side, and at least the whole read."""
        pad = self._window_pad
        return self.reference.window(candidate, read_length, pad, pad,
                                     min_length=read_length)

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
        window, chromosome, window_start, offset = ctx
        hit = self.light_aligner.align(codes, window, offset)
        if hit is None:
            return None
        return hit, chromosome, window_start + hit.ref_start

    def _dp_align_candidates(self, pending: Sequence[_Pending]) -> list:
        """Banded DP at the filtered candidates (cheap fallback arc): the
        best joint hit or ``None`` per pending pair, in order.

        Two chunk-wide waves: read 1 of every pair at every candidate,
        then read 2 where read 1 survived — the same problems, and so
        the same ``dp_cells_candidate``, as one candidate at a time.
        """
        first = [(number, pair) for number, work in enumerate(pending)
                 for pair in work.candidates]
        hits1 = self._dp_at([(pending[number].oriented1, cand1)
                             for number, (cand1, _cand2) in first])
        survivors = [(number, pair, hit1)
                     for (number, pair), hit1 in zip(first, hits1)
                     if hit1 is not None]
        hits2 = self._dp_at([(pending[number].oriented2, cand2)
                             for number, (_cand1, cand2), _hit1
                             in survivors])
        # The joint score a pair's next hit must beat: just under its
        # acceptance floor, then its best so far (the first of equals).
        bar = [int(self.config.min_dp_score_fraction
                   * self._perfect_joint(work.oriented1, work.oriented2)) - 1
               for work in pending]
        best: list = [None] * len(pending)
        for (number, (cand1, cand2), hit1), hit2 in zip(survivors, hits2):
            if hit2 is None:
                continue
            score = hit1[0].score + hit2[0].score
            if score > bar[number]:
                bar[number] = score
                best[number] = (cand1, cand2, hit1, hit2)
        return best

    def _dp_at(self, problems: Sequence[Tuple[np.ndarray, int]]) -> list:
        """Banded DP of each ``(read, candidate)``: a hit or ``None``
        per problem, in order."""
        contexts = [self._window(candidate, len(codes))
                    for codes, candidate in problems]
        hits: list = [None] * len(contexts)
        for members, reads, windows, diagonal, bandwidth in stack_problems(
                [None if ctx is None else
                 (codes, ctx[0], ctx[3], self.config.fallback_bandwidth)
                 for (codes, _candidate), ctx in zip(problems, contexts)]):
            stack = align_banded(reads, windows, scheme=self.scheme,
                                 diagonal=diagonal, bandwidth=bandwidth)
            for k, result in zip(members, stack):
                self.stats.dp_cells_candidate += result.cells
                if result.score >= 0:
                    _, chromosome, window_start, _ = contexts[k]
                    hits[k] = (result, chromosome,
                               window_start + result.ref_start)
        return hits

    def _build_result(self, name: str, stage: str, orientation: str,
                      read1: np.ndarray, read2: np.ndarray,
                      joint) -> MappingResult:
        _cand1, _cand2, hit_up, hit_down = joint
        method = METHOD_LIGHT if stage == STAGE_LIGHT else METHOD_DP
        if orientation == "fr":
            record1 = self._record(name, hit_up, read1, 1, "+", method)
            record2 = self._record(name, hit_down, read2, 2, "-", method)
        else:
            # Reverse fragment: physical read 2 is upstream/forward.
            record1 = self._record(name, hit_down, read1, 1, "-", method)
            record2 = self._record(name, hit_up, read2, 2, "+", method)
        record1.set_mate(record2)
        record2.set_mate(record1)
        return MappingResult(name=name, records=(record1, record2),
                             engine="genpair", stage=stage,
                             orientation=orientation,
                             joint_score=hit_up[0].score
                             + hit_down[0].score)

    def _record(self, name: str, hit, read_codes: np.ndarray, mate: int,
                strand: str, method: str) -> AlignmentRecord:
        alignment, chromosome, position = hit
        cigar = alignment.cigar
        if method == METHOD_LIGHT and cigar.edit_runs == ():
            method = METHOD_EXACT
        return AlignmentRecord(query_name=f"{name}/{mate}",
                               chromosome=chromosome,
                               position=int(position), strand=strand,
                               mapq=60, cigar=cigar,
                               score=alignment.score,
                               read_codes=read_codes, mate=mate,
                               mapped=True, method=method)

    def _fall_back(self, items: Sequence[Tuple[np.ndarray, np.ndarray,
                                               str]]
                   ) -> List[MappingResult]:
        """The chunk's residue through the traditional pipeline in one
        ``map_pairs`` call, relabelled in the Fig 10 vocabulary.  Every
        DP cell it spends counts, placed or not: the work is GenDP's
        (§7.4)."""
        stats = self.stats
        if self.fallback is None:
            results = [MappingResult(name=name, records=(
                AlignmentRecord(query_name=f"{name}/1", mapped=False,
                                read_codes=read1, mate=1),
                AlignmentRecord(query_name=f"{name}/2", mapped=False,
                                read_codes=read2, mate=2)))
                for read1, read2, name in items]
        else:
            spent = self.fallback.stats
            before = spent.dp_cells_chaining + spent.dp_cells_alignment
            results = self.fallback.map_pairs(items)
            stats.dp_cells_full += (spent.dp_cells_chaining
                                    + spent.dp_cells_alignment - before)
        for result in results:
            result.engine = "genpair"
            if result.mapped:
                result.stage = STAGE_FULL_DP
            else:
                result.stage = STAGE_UNMAPPED
                stats.unmapped += 1
        return results
