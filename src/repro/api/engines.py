"""Engine adapters: one protocol, three mapping engines.

The :class:`~repro.api.Mapper` facade is engine-polymorphic: every
workload — paired-end GenPair, the mm2-like baseline, single-read
long-read voting — flows through the same ``map``/``map_stream``/
``map_file`` surface and the same :class:`~repro.genome.MappingResult`
record.  This module defines the :class:`Engine` protocol those
workloads implement and the three adapters listed in
:data:`~repro.api.registry.ENGINES`:

* :class:`GenPairEngine` (``genpair``) — the paper's pipeline, wrapping
  :class:`~repro.core.pipeline.GenPairPipeline` plus the persistent
  :class:`~repro.core.executor.StreamExecutor` worker pool (this is
  the only engine that fans out to forked workers, and the only place
  that constructs a pool; pooled and in-process output are
  byte-identical);
* :class:`Mm2Engine` (``mm2``) — the minimizer seed-chain-align
  baseline with paired-end support and configurable mate rescue
  (:class:`~repro.api.config.Mm2Options`); the minimizer index is
  built lazily, on engine construction;
* :class:`LongReadEngine` (``longread``) — single-read long-read
  mapping via pseudo-pairs + Location Voting
  (:class:`~repro.api.config.LongReadOptions`), sharing the facade's
  warm SeedMap so one memory-mapped index serves both GenPair and
  long-read traffic.

Engines are built lazily by the facade (one instance per engine name,
reused across runs and daemon requests) and own their per-run
statistics lifecycle: ``begin_run`` zeroes the per-run counters,
``run_stats`` returns them, and the facade folds them into per-engine
cumulative totals with :func:`~repro.core.pipeline.merge_stats`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from ..core.executor import StreamExecutor, pool_available
from ..core.longread import LongReadConfig, LongReadMapper, LongReadStats
from ..core.pipeline import (GenPairPipeline, PipelineStats, chunked,
                             normalize_pairs)
from ..genome.results import MappingResult
from ..util.diagnostics import note
from .config import MappingConfig, MappingConfigError

#: ``input_kind`` values: what one workload item is.
INPUT_PAIRED = "paired"    # (read1, read2, name) tuples / paired FASTQ
INPUT_SINGLE = "single"    # (codes, name) tuples / single-read FASTQ


def stats_dict(stats) -> dict:
    """A stats dataclass as plain JSON types (the wire/report form)."""
    return {spec.name: int(getattr(stats, spec.name))
            for spec in dataclasses.fields(stats)}


class Engine:
    """The protocol every mapping engine adapter satisfies.

    Class attributes ``name`` (the registry entry) and ``input_kind``
    (:data:`INPUT_PAIRED` or :data:`INPUT_SINGLE`); instance surface:

    * :meth:`begin_run` — zero the per-run counters (called by the
      facade at the start of every run);
    * :meth:`map_stream` — map a lazy item stream, yielding
      :class:`~repro.genome.MappingResult` in input order;
    * :meth:`finish_run` — fold any deferred counters (worker pools);
    * :meth:`run_stats` — the per-run stats dataclass;
    * :meth:`fresh_stats` — a zeroed stats dataclass of this engine's
      type (the facade's cumulative accumulator);
    * :meth:`warm_up` / :meth:`close` — resource lifecycle.
    """

    name: str = ""
    input_kind: str = INPUT_PAIRED

    def begin_run(self) -> None:
        raise NotImplementedError

    def map_stream(self, items: Iterable) -> Iterator[MappingResult]:
        raise NotImplementedError

    def finish_run(self) -> None:
        pass

    def run_stats(self):
        raise NotImplementedError

    def fresh_stats(self):
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def close(self) -> None:
        pass


def _normalize_reads(items: Iterable, first_index: int = 0
                     ) -> List[Tuple[np.ndarray, str]]:
    """Coerce single-read inputs to ``(codes, name)`` tuples.

    Accepts what the paired normalizer accepts, one read at a time:
    ``(codes, name)`` tuples (the :func:`~repro.genome.iter_reads`
    shape), objects with ``codes``/``name`` (e.g. ``SimulatedRead``),
    and bare code arrays (named ``read{N}`` by stream position).
    """
    out: List[Tuple[np.ndarray, str]] = []
    for index, item in enumerate(items, start=first_index):
        if hasattr(item, "codes"):
            out.append((item.codes, item.name))
        elif isinstance(item, np.ndarray):
            out.append((item, f"read{index}"))
        else:
            codes = item[0]
            name = item[1] if len(item) > 1 else f"read{index}"
            out.append((codes, str(name)))
    return out


def _lazy_full_fallback(reference):
    """Full-DP fallback that defers the O(genome) minimizer-index build
    until the first pair actually needs it, so a mapper whose pairs all
    stay on the GenPair path keeps mmap-cheap startup."""
    from ..mapper import Mm2LikeMapper, make_full_fallback

    state: dict = {}

    def fallback(read1, read2, name):
        if "fn" not in state:
            state["fn"] = make_full_fallback(Mm2LikeMapper(reference))
        return state["fn"](read1, read2, name)

    return fallback


class GenPairEngine(Engine):
    """The paper's paired-end pipeline behind the Engine protocol.

    Owns the :class:`GenPairPipeline` and the lazily-created, **reused**
    :class:`StreamExecutor` worker pool.  Whether there is a pool is
    decided once, at construction (:func:`pool_available`); where
    ``workers > 1`` cannot be honoured the engine says so once and maps
    in-process — the output is identical either way.
    """

    name = "genpair"
    input_kind = INPUT_PAIRED

    def __init__(self, facade) -> None:
        config: MappingConfig = facade.config
        self._pooled = pool_available(config.workers)
        if config.workers > 1 and not self._pooled:
            note("workers>1 needs os.fork, which this platform lacks; "
                 "mapping single-process instead")
        full_fallback = None
        if config.full_fallback:
            if self._pooled:
                # Forked workers inherit a pre-fork build copy-on-write;
                # building lazily would make every worker rebuild it.
                from ..mapper import Mm2LikeMapper, make_full_fallback
                full_fallback = make_full_fallback(
                    Mm2LikeMapper(facade.reference))
            else:
                full_fallback = _lazy_full_fallback(facade.reference)
        self.config = config
        self.pipeline = GenPairPipeline(
            facade.reference, seedmap=facade.seedmap,
            config=config.genpair(), full_fallback=full_fallback)
        self._executor = None

    # -- pool lifecycle ------------------------------------------------

    def _ensure_executor(self):
        if self._executor is None and self._pooled:
            self._executor = StreamExecutor(
                self.pipeline, workers=self.config.workers,
                chunk_size=self.config.batch_size)
        return self._executor

    def warm_up(self) -> None:
        self._ensure_executor()

    # -- runs ----------------------------------------------------------

    def begin_run(self) -> None:
        # Fresh per-run counters; previous totals live on in the facade.
        self.pipeline.stats = PipelineStats()

    def map_stream(self, items: Iterable) -> Iterator[MappingResult]:
        executor = self._ensure_executor()
        if executor is not None:
            source = executor.map(items)
        else:
            source = self.pipeline.map_stream(
                items, chunk_size=self.config.batch_size)
        for result in source:
            yield MappingResult(name=result.name,
                                records=(result.record1, result.record2),
                                engine=self.name, stage=result.stage,
                                orientation=result.orientation,
                                joint_score=result.joint_score)

    def finish_run(self) -> None:
        if self._executor is not None:
            self._executor.fold_stats()

    def run_stats(self) -> PipelineStats:
        return self.pipeline.stats

    def fresh_stats(self) -> PipelineStats:
        return PipelineStats()

    def close(self) -> None:
        if self._executor is not None:
            executor, self._executor = self._executor, None
            # close() folds residual worker stats into the pipeline's
            # current counters; nothing is lost.
            executor.close()


class Mm2Engine(Engine):
    """The minimizer seed-chain-align baseline behind the protocol.

    Paired-end input; the O(genome) minimizer index is built when the
    engine is first constructed (i.e. on the first ``engine="mm2"``
    request against a warm facade, never sooner).
    """

    name = "mm2"
    input_kind = INPUT_PAIRED

    def __init__(self, facade) -> None:
        from ..mapper.mm2 import MapperConfig, MapperStats, Mm2LikeMapper

        options = facade.config.mm2_options()
        self.config = facade.config
        self._stats_type = MapperStats
        self.mapper = Mm2LikeMapper(
            facade.reference,
            config=MapperConfig(
                max_insert=options.max_insert,
                min_score_fraction=options.min_score_fraction,
                mate_rescue=options.mate_rescue))

    def begin_run(self) -> None:
        self.mapper.stats = self._stats_type()

    def map_stream(self, items: Iterable) -> Iterator[MappingResult]:
        for chunk in chunked(items, self.config.batch_size,
                             normalize_pairs):
            for (read1, read2, name), outcome in zip(
                    chunk, self.mapper.map_pairs(chunk)):
                record1, record2, proper = outcome
                if proper:
                    stage = "proper_pair"
                elif record1.mapped or record2.mapped:
                    stage = "mapped"
                else:
                    stage = "unmapped"
                yield MappingResult(name=name,
                                    records=(record1, record2),
                                    engine=self.name, stage=stage,
                                    joint_score=record1.score
                                    + record2.score)

    def run_stats(self):
        return self.mapper.stats

    def fresh_stats(self):
        return self._stats_type()


class LongReadEngine(Engine):
    """Single-read long-read mapping behind the protocol.

    Shares the facade's SeedMap — one warm memory-mapped index serves
    both GenPair and long-read traffic — which is why the facade's
    ``seed_length``/``delta`` flow into :class:`LongReadConfig` and the
    pseudo-pair ``chunk_length`` must fit at least one seed.
    """

    name = "longread"
    input_kind = INPUT_SINGLE

    def __init__(self, facade) -> None:
        config: MappingConfig = facade.config
        options = config.longread_options()
        if options.chunk_length < config.seed_length:
            raise MappingConfigError(
                f"longread.chunk_length ({options.chunk_length}) must "
                f"be >= seed_length ({config.seed_length}): each "
                "pseudo-pair chunk must hold at least one seed")
        self.config = config
        self.mapper = LongReadMapper(
            facade.reference, seedmap=facade.seedmap,
            config=LongReadConfig(
                chunk_length=options.chunk_length,
                seed_length=config.seed_length,
                seeds_per_chunk=config.seeds_per_read,
                delta=config.delta,
                vote_bin=options.vote_bin,
                max_votes_tried=options.max_votes_tried,
                min_votes=options.min_votes,
                dp_bandwidth=options.dp_bandwidth))

    def begin_run(self) -> None:
        self.mapper.stats = LongReadStats()

    def map_stream(self, items: Iterable) -> Iterator[MappingResult]:
        for chunk in chunked(items, self.config.batch_size,
                             _normalize_reads):
            for (codes, name), record in zip(chunk,
                                             self.mapper.map_reads(chunk)):
                yield MappingResult(
                    name=name, records=(record,), engine=self.name,
                    stage="mapped" if record.mapped else "unmapped",
                    joint_score=record.score)

    def run_stats(self) -> LongReadStats:
        return self.mapper.stats

    def fresh_stats(self) -> LongReadStats:
        return LongReadStats()
