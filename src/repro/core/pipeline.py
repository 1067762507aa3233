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
(:meth:`GenPairPipeline._map_chunk`): the ``fr`` seeds of every pair of a
chunk, then the ``rf`` seeds of only the pairs ``fr`` left without a joint
candidate, are each hashed with one vectorized xxHash call, resolved
against the array-backed SeedMap in one ``searchsorted`` probe and merged
into one flat sorted candidate array with per-read bounds, a
:class:`~repro.core.query.QueryColumns` (:func:`repro.core.query.resolve_reads`,
the front-end the long-read mode shares); paired-adjacency filtering runs
over each in one pass, and light alignment in one stacked
:meth:`LightAligner.align` call over every joint candidate of the chunk,
each pair then replaying the candidate-by-candidate rule on the results;
the pairs light alignment cannot settle meet again in one chunk-wide
candidate-DP call (both reads at every candidate: one
:func:`~repro.align.banded.align_problems` call, which cuts each band to
its span and sweeps each distinct problem once), and the chunk's residue
goes to the fallback mapper's ``map_pairs`` in one call.  Both stacked
calls align some attempts the candidate-by-candidate rule would have
skipped (after a pair's perfect candidate; read 2 where read 1 failed),
which costs less than a kernel call per round; the counters charge only
the attempts and cells the rule makes.
Candidate DP picks each pair's winner by score alone; a hit carries its
window's start, and only the two winning hits of a pair walk their
tracebacks (for the position and CIGAR of the records).
Every pair comes out as a
:class:`~repro.genome.results.MappingResult`.
:meth:`~GenPairPipeline.map_pair` is a chunk of one,
:meth:`~GenPairPipeline.map_pairs` the eager form and
:meth:`~GenPairPipeline.map_stream` the lazy one; chunk boundaries never
change results.  The per-seed scalar reference the chunk seeding is
tested against lives in ``tests/oracles/core.py``.

Coordinates: candidates are *linear* implied read starts up to and
including the adjacency filter, whose chromosome boundaries are
:meth:`~repro.genome.ReferenceGenome.read_boundaries`; from the windows
on — :meth:`~repro.genome.ReferenceGenome.windows` for light
alignment, :meth:`GenPairPipeline._window` (one
:meth:`~repro.genome.ReferenceGenome.window` call) for candidate DP —
light alignment, candidate DP and the records speak ``(chromosome,
position)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, \
    Optional, Sequence, Tuple

import numpy as np

# ``align_banded`` is not called here but stays importable: perf's shim
# test reads this copy to check that importers' copies are rebound.
from ..align.banded import align_banded, align_problems  # noqa: F401
from ..align.scoring import DEFAULT_SCHEME, HIGH_QUALITY_THRESHOLD, \
    ScoringScheme
from ..genome.reference import ReferenceGenome
from ..genome.results import MappingResult
from ..genome.sam import (METHOD_DP, METHOD_EXACT, METHOD_LIGHT,
                          AlignmentRecord, Mate, mapped_pair)
from ..genome.sequence import window_view
from ..obs import get_registry, span
from .light_align import LightAligner
from .pairfilter import DEFAULT_DELTA, JointColumns, filter_rows
from .query import QueryColumns, resolve_reads
from .seedmap import DEFAULT_FILTER_THRESHOLD, SeedMap
from .seeding import chunk_role_codes

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


#: Joint candidates of a pair that light alignment and candidate DP try,
#: in filter order (the paper's candidate FIFO depth).
MAX_JOINT_CANDIDATES = 16
#: Half-width, in diagonals, of the candidate-DP band.
CANDIDATE_BANDWIDTH = 16
#: Reference bases either side of a read's span in a candidate window;
#: never fewer than the light aligner's edit budget.
CANDIDATE_PAD = 24
#: Candidate-DP pairs scoring below this fraction of the perfect joint
#: score are rejected (the pair then goes to the traditional pipeline).
MIN_DP_SCORE_FRACTION = 0.5


@dataclass(frozen=True)
class GenPairConfig:
    """The GenPair parameters a caller sets (paper defaults): the
    SeedMap's ``seed_length`` and ``filter_threshold``, the
    dataset-defined ``delta`` (§4.5) and the light-alignment
    ``score_threshold``.  The rest are this module's constants and
    :data:`~repro.core.seeding.SEEDS_PER_READ`."""

    seed_length: int = 50
    delta: int = DEFAULT_DELTA
    filter_threshold: Optional[int] = DEFAULT_FILTER_THRESHOLD
    score_threshold: int = HIGH_QUALITY_THRESHOLD


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
    numeric: per-run counters fold into the facade's totals with it.
    Their instance dictionaries hold exactly the fields.
    """
    values = vars(total)
    for name, value in vars(run).items():
        values[name] += value


def normalize_pairs(pairs: Iterable, first_index: int = 0
                    ) -> List[Tuple[np.ndarray, np.ndarray, str]]:
    """Coerce pair inputs to ``(read1, read2, name)`` tuples.

    Accepts ``(read1, read2[, name])`` tuples of code arrays and objects
    with ``read1.codes``/``read2.codes``/``name`` (e.g.
    ``SimulatedPair``); anything else raises :class:`TypeError` naming
    its position in the stream.  ``first_index`` seats that position
    and the synthetic-name counter for unnamed tuples: :func:`chunked`
    passes its running pair count so ``pair{N}`` names stay unique
    across chunks instead of restarting at ``pair0`` every chunk.
    """
    items = []
    for index, pair in enumerate(pairs, start=first_index):
        if type(pair) is tuple and len(pair) == 3 \
                and isinstance(pair[0], np.ndarray) \
                and isinstance(pair[1], np.ndarray):
            items.append(pair)  # already (read1, read2, name)
        elif hasattr(pair, "read1"):
            items.append((pair.read1.codes, pair.read2.codes,
                          pair.name))
        elif isinstance(pair, (tuple, list)) and len(pair) in (2, 3) \
                and isinstance(pair[0], np.ndarray) \
                and isinstance(pair[1], np.ndarray):
            name = pair[2] if len(pair) > 2 else f"pair{index}"
            items.append((pair[0], pair[1], name))
        else:
            raise TypeError(
                f"pair {index} of the stream is {pair!r:.60}: expected a "
                "(read1, read2[, name]) tuple of code arrays or an object "
                "with read1.codes, read2.codes and name")
    return items


def chunked(items: Iterable, chunk_size: int,
            normalize: Callable[[List, int], List]) -> Iterator[List]:
    """Chunk a lazy item stream through ``normalize(chunk, consumed)``.

    The one chunk-and-number loop every engine shares: ``consumed`` is
    the running item count, so unnamed items are numbered globally
    across the whole stream, and partial tails flush the same way
    everywhere.
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
    #: :data:`MAX_JOINT_CANDIDATES` of them.
    candidates: Sequence[Tuple[int, int]]
    #: Joint score of an exact pair, each read at its own length.
    perfect: int


def _placement(hit, read_codes: np.ndarray, strand: str, method: str
               ) -> Mate:
    """A hit ``(alignment, chromosome, window_start)`` as a mate of
    :func:`~repro.genome.sam.mapped_pair`; an edit-free light one is exact."""
    alignment, chromosome, window_start = hit
    if method == METHOD_LIGHT:
        profile = alignment.profile
        if not (profile.mismatches or profile.insertion_run
                or profile.deletion_run):
            method = METHOD_EXACT
    return (chromosome, int(window_start + alignment.ref_start), strand,
            alignment.cigar, alignment.score, read_codes, method)


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
            scheme=scheme, threshold=config.score_threshold)
        #: A :class:`~repro.mapper.mm2.Mm2LikeMapper` for the pairs
        #: GenPair cannot place, or ``None`` to emit them unmapped.
        self.fallback = fallback
        self.stats = PipelineStats()
        self._window_pad = max(self.light_aligner.max_edits, CANDIDATE_PAD)
        self._span_views: Dict[int, np.ndarray] = {}

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
        fr read2, rf read1, rf read2), reverse-complemented once for the
        whole chunk (:func:`~repro.core.seeding.chunk_role_codes`), are
        resolved in batched SeedMap probes as :meth:`_map_resolved` asks
        for them.  Stage timings are recorded once per *chunk*
        (``pipeline.seed_query_s`` for the probes,
        ``pipeline.filter_align_s`` for the rest), so instrumentation
        cost is amortized over the whole batch.
        """
        obs = get_registry()
        timed = obs.enabled
        start = time.perf_counter() if timed else 0.0
        probing = 0.0
        roles = chunk_role_codes(items)

        def resolve(rows: np.ndarray) -> QueryColumns:
            nonlocal probing
            began = time.perf_counter()
            with span("seed.query_batch"):
                queries = resolve_reads(
                    self.seedmap, [roles[row] for row in rows.tolist()],
                    self.config.seed_length)
            probing += time.perf_counter() - began
            return queries

        with span("pair.filter_align"):
            results = self._map_resolved(items, roles, resolve)
        if timed:
            obs.fold((("pipeline.chunks", 1), ("pipeline.pairs", len(items))),
                     (("pipeline.seed_query_s", probing),
                      ("pipeline.filter_align_s",
                       time.perf_counter() - start - probing)))
        return results

    def _map_resolved(self, items: Sequence[Tuple[np.ndarray, np.ndarray,
                                                  str]],
                      roles: Sequence[np.ndarray],
                      resolve: Callable[[np.ndarray], QueryColumns]
                      ) -> List[MappingResult]:
        """The mapping decision for a chunk; ``roles`` holds four
        sequences per pair in :func:`~repro.core.seeding.pair_role_codes`
        order, and ``resolve`` answers the :class:`QueryColumns` of the
        role rows it is given.

        Filtering (:meth:`_filter`) and light alignment
        (:meth:`_light_align`) settle most pairs.  The pairs left
        with candidates but no light alignment get candidate DP together
        (:meth:`_dp_align_candidates`), and what neither places goes on
        together too (:meth:`_fall_back`).
        """
        stats = self.stats
        stats.pairs_total += len(items)
        if not items:
            return []
        lengths = np.fromiter(map(len, roles), np.int64, len(roles))
        orientation, joint = self._filter(lengths, resolve)
        # A pair is placed exactly when it has joint candidates.
        sizes = joint.bounds[1:] - joint.bounds[:-1]
        placed = sizes.nonzero()[0]
        ups = 4 * placed + 2 * orientation[placed]
        starts = joint.bounds[placed]
        counts = np.minimum(sizes[placed], MAX_JOINT_CANDIDATES)
        perfect = (self.scheme.perfect_score(lengths[ups])
                   + self.scheme.perfect_score(lengths[ups + 1])).tolist()
        results: list = [None] * len(items)
        pending = []
        residue = (sizes == 0).nonzero()[0].tolist()
        for index, number, up, start, count, top, light in zip(
                placed.tolist(), orientation[placed].tolist(), ups.tolist(),
                starts.tolist(), counts.tolist(), perfect,
                self._light_align(roles, lengths, ups, perfect, joint,
                                  starts, counts)):
            direction = ORIENTATIONS[number]
            if light is None:
                pending.append((index, _Pending(
                    direction, roles[up], roles[up + 1], list(zip(
                        joint.first[start:start + count].tolist(),
                        joint.second[start:start + count].tolist())), top)))
                continue
            stats.light_mapped += 1
            result = results[index] = self._build_result(
                items[index][2], STAGE_LIGHT, direction, roles[up],
                roles[up + 1], light)
            if result.joint_score == top:
                stats.exact_pairs += 1
        if pending:
            for (index, work), dp_hit in zip(
                    pending, self._dp_align_candidates(
                        [work for _index, work in pending])):
                if dp_hit is None:
                    stats.residual_fallback += 1
                    residue.append(index)
                    continue
                stats.light_fallback += 1
                results[index] = self._build_result(
                    items[index][2], STAGE_DP_CANDIDATE, work.orientation,
                    work.oriented1, work.oriented2, dp_hit)
            residue.sort()
        if residue:
            for index, result in zip(residue, self._fall_back(
                    [items[index] for index in residue])):
                results[index] = result
        return results

    # -- chunk-wide decision -----------------------------------------------

    def _window(self, candidate: int, read_length: int
                ) -> Optional[Tuple[np.ndarray, str, int, int]]:
        """:meth:`ReferenceGenome.window` around a candidate: room for
        the edit budget either side, and at least the whole read."""
        pad = self._window_pad
        return self.reference.window(candidate, read_length, pad, pad,
                                     min_length=read_length)

    def _filter(self, lengths: np.ndarray,
                resolve: Callable[[np.ndarray], QueryColumns]
                ) -> Tuple[np.ndarray, JointColumns]:
        """Each pair's orientation (index into :data:`ORIENTATIONS`, or
        ``-1``) and joint candidates: ``fr`` for all, ``rf`` for those it
        left empty: one ``resolve`` probe of the pairs tried (their two
        reads adjacent) and one :func:`~repro.core.pairfilter.filter_rows`
        call per orientation, each pair's chromosome boundaries those of
        its shorter read.  Only the orientations tried are resolved and
        charged."""
        stats = self.stats
        count = len(lengths) // 4
        half = np.minimum(lengths[0::4], lengths[1::4]) // 2
        orientation = np.full(count, -1)
        found = []
        tried = np.arange(count)
        for number in range(len(ORIENTATIONS)):
            # Each tried pair's two reads in this orientation, adjacent.
            rows = (4 * tried + 2 * number).repeat(2)
            rows[1::2] += 1
            queries = resolve(rows)
            stats.locations_fetched += int(queries.locations_fetched.sum())
            stats.traffic_bytes += int(queries.traffic_bytes.sum())
            joint = filter_rows(
                queries.candidates, queries.bounds,
                np.arange(0, 2 * tried.size, 2),
                self.config.delta, boundaries=self.reference.offsets,
                shifts=half[tried])
            stats.filter_iterations += int(joint.iterations.sum())
            found.append((tried, joint, queries.seed_hits))
            sizes = joint.bounds[1:] - joint.bounds[:-1]
            orientation[tried[sizes > 0]] = number
            tried = tried[sizes == 0]
            if not tried.size:
                break
        else:
            # Seeded: both reads hit a seed in some orientation tried.
            seeded = np.zeros(count, dtype=bool)
            for pairs, _joint, hits in found:
                seeded[pairs] |= (hits[0::2] > 0) & (hits[1::2] > 0)
            seeded = seeded[tried]
            stats.seedmap_fallback += int((~seeded).sum())
            stats.filter_fallback += int(seeded.sum())
        if len(found) == 1:  # one call, over every pair in order
            return orientation, found[0][1]
        # A pair's joint candidates all come from the call it passed in.
        pairs, joints, _hits = zip(*found)
        owner = np.concatenate([members.repeat(joint.bounds[1:]
                                               - joint.bounds[:-1])
                                for members, joint in zip(pairs, joints)])
        order = owner.argsort(kind="stable")
        return orientation, JointColumns(
            np.concatenate([joint.first for joint in joints])[order],
            np.concatenate([joint.second for joint in joints])[order],
            np.concatenate(([0], np.bincount(owner, minlength=count)
                            .cumsum())),
            np.bincount(np.concatenate(pairs), np.concatenate(
                [joint.iterations for joint in joints]), count)
            .astype(np.int64))

    def _light_align(self, roles: Sequence[np.ndarray], lengths: np.ndarray,
                     ups: np.ndarray, perfect: List[int], joint: JointColumns,
                     starts: np.ndarray, counts: np.ndarray) -> list:
        """Each placed pair's best light joint hit or ``None`` (reads
        ``roles[ups[k]:ups[k] + 2]``; the ``counts[k]`` joint candidates
        from ``starts[k]``).  Both reads of every pair at every candidate
        go in one :meth:`_light_stack` call; then each pair walks its
        candidates in order: a strictly better score replaces the best
        (the first of equal scores wins), and the pair stops at
        ``perfect[k]``.  ``light_attempts`` charges only the attempts up
        to that stop."""
        total = int(counts.sum())
        if not total:
            return []
        # at[t]: the joint row of flat attempt t, pair by pair.
        at = np.arange(total) + (starts - (counts.cumsum() - counts)) \
            .repeat(counts)
        first, second = joint.first[at], joint.second[at]
        up = ups.repeat(counts)
        rows = np.concatenate((up, up + 1))
        hits = self._light_stack(roles, rows, lengths[rows],
                                 np.concatenate((first, second)))
        # One pass over the flat attempts, pair by pair; ``count`` ends as
        # the pair's attempts after its stop, and ``total`` as the
        # attempts made.
        attempt = zip(first.tolist(), second.tolist(), hits, hits[total:])
        best: list = []
        for count, top in zip(counts.tolist(), perfect):
            found = None
            for cand1, cand2, hit1, hit2 in islice(attempt, count):
                count -= 1
                if hit1 is None or hit2 is None:
                    continue
                score = hit1[0].score + hit2[0].score
                if found is None or score > bar:
                    found, bar = (cand1, cand2, hit1, hit2), score
                if score == top:
                    break
            if count:
                total -= count
                next(islice(attempt, count - 1, None), None)
            best.append(found)
        self.stats.light_attempts += 2 * total
        return best

    def _light_stack(self, roles: Sequence[np.ndarray], rows: np.ndarray,
                     lengths: np.ndarray, candidates: np.ndarray) -> list:
        """``(hit, chromosome, window_start)`` or ``None`` per
        ``roles[rows[k]]`` at ``candidates[k]``, stacked
        :meth:`LightAligner.align` calls on the spans the shifts read:
        the read's span and ``max_edits`` either side, cut to its
        chromosome (a span shorter than the read can fit no shift).
        The uncut spans of the first read length are rows of a strided
        view of the linear reference (one per span, built once),
        gathered in one call; the others, sliced one by one, in one
        more."""
        reference, edits = self.reference, self.light_aligner.max_edits
        index, begin, end = reference.windows(candidates, lengths, edits,
                                              edits, lengths)
        usable = index >= 0
        hits: list = [None] * len(rows)
        if not usable.any():
            return hits
        length = int(lengths[usable.argmax()])
        span = length + 2 * edits
        whole = usable & (end - begin == span) & (lengths == length)
        names = reference.names
        for part, strided in ((whole.nonzero()[0], True),
                              ((usable & ~whole).nonzero()[0], False)):
            if not part.size:
                continue
            reads = [roles[row] for row in rows[part].tolist()]
            starts = begin[part]
            if strided:
                reads, windows = np.array(reads), self._spans(span)[starts]
            else:
                codes = reference.linear_codes()
                windows = [codes[start:stop] for start, stop in zip(
                    starts.tolist(), end[part].tolist())]
            chromosomes = index[part]
            for k, hit, chromosome, start in zip(
                    part.tolist(), self.light_aligner.align(
                        reads, windows, candidates[part] - starts),
                    chromosomes.tolist(),
                    (starts - reference.offsets[chromosomes]).tolist()):
                if hit is not None:
                    hits[k] = (hit, names[chromosome], start)
        return hits

    def _spans(self, span: int) -> np.ndarray:
        """Every ``span``-long window of the linear reference, as the rows
        of a read-only strided view (built once per span)."""
        view = self._span_views.get(span)
        if view is None:
            view = self._span_views[span] = window_view(
                self.reference.linear_codes(), span)
        return view

    def _dp_align_candidates(self, pending: Sequence[_Pending]) -> list:
        """Banded DP at the filtered candidates (cheap fallback arc): the
        best joint hit or ``None`` per pending pair, in order.

        One chunk-wide call aligns both reads of every pair at every
        candidate; ``dp_cells_candidate`` charges read 2's cells only
        where read 1 survived, as one candidate at a time would.
        """
        first = [(number, pair) for number, work in enumerate(pending)
                 for pair in work.candidates]
        hits = self._dp_at(
            [(pending[number].oriented1, cand1)
             for number, (cand1, _cand2) in first]
            + [(pending[number].oriented2, cand2)
               for number, (_cand1, cand2) in first])
        # The joint score a pair's next hit must beat: just under its
        # acceptance floor, then its best so far (the first of equals).
        bar = [int(MIN_DP_SCORE_FRACTION * work.perfect) - 1
               for work in pending]
        best: list = [None] * len(pending)
        cells = 0
        for (number, (cand1, cand2)), (hit1, cells1), (hit2, cells2) in zip(
                first, hits, hits[len(first):]):
            cells += cells1
            if hit1 is None:
                continue
            cells += cells2
            if hit2 is None:
                continue
            score = hit1[0].score + hit2[0].score
            if score > bar[number]:
                bar[number] = score
                best[number] = (cand1, cand2, hit1, hit2)
        self.stats.dp_cells_candidate += cells
        return best

    def _dp_at(self, problems: Sequence[Tuple[np.ndarray, int]]) -> list:
        """Banded DP of each ``(read, candidate)`` in one
        :func:`~repro.align.banded.align_problems` call: ``(hit or None,
        cells)`` per problem, in order (no window: no cells).  A hit
        carries its window's start, not its position: only the winners'
        tracebacks are ever walked."""
        contexts = [self._window(candidate, len(codes))
                    for codes, candidate in problems]
        results = align_problems(
            [None if ctx is None else
             (codes, ctx[0], ctx[3], CANDIDATE_BANDWIDTH)
             for (codes, _candidate), ctx in zip(problems, contexts)],
            self.scheme)
        hits: list = []
        for result, ctx in zip(results, contexts):
            if result is None:
                hits.append((None, 0))
            elif result.score >= 0:
                hits.append(((result, ctx[1], ctx[2]), result.cells))
            else:
                hits.append((None, result.cells))
        return hits

    def _build_result(self, name: str, stage: str, orientation: str,
                      oriented1: np.ndarray, oriented2: np.ndarray,
                      joint) -> MappingResult:
        """A placed pair's result; ``oriented1``/``oriented2`` are the
        role sequences its hits aligned, upstream (``+``) then
        downstream (``-``), which the records keep as their reads."""
        _cand1, _cand2, hit_up, hit_down = joint
        method = METHOD_LIGHT if stage == STAGE_LIGHT else METHOD_DP
        up = _placement(hit_up, oriented1, "+", method)
        down = _placement(hit_down, oriented2, "-", method)
        # Reverse fragment: physical read 2 is upstream/forward.
        first, second = (up, down) if orientation == "fr" else (down, up)
        return MappingResult(name, mapped_pair(name, 60, first, second),
                             "genpair", stage, orientation,
                             hit_up[0].score + hit_down[0].score)

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
