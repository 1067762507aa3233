"""Engine adapters: one protocol, three mapping engines.

Every workload flows through the :class:`~repro.api.Mapper` facade's
``map``/``map_stream``/``map_file`` as one result type,
:class:`~repro.genome.MappingResult`: each mapping core builds it in
its chunk call and the engine passes it on untouched.  An
:class:`Engine` is that chunk call plus the loop and the per-run
statistics lifecycle around it, and a constructor that builds the core
with its own config dataclass's defaults plus the values
:class:`~repro.api.config.MappingConfig` carries for it (``seed_length``,
``filter_threshold``, ``delta``).
The adapters listed in :data:`~repro.api.registry.ENGINES`:

* :class:`GenPairEngine` (``genpair``) — the paper's
  :class:`~repro.core.pipeline.GenPairPipeline` plus the persistent
  :class:`~repro.core.executor.StreamExecutor` worker pool (the only
  place that constructs one; pooled and in-process output are
  byte-identical).  With ``full_fallback`` the pipeline's ``fallback=``
  is an :class:`~repro.mapper.mm2.Mm2LikeMapper`;
* :class:`Mm2Engine` (``mm2``) — the minimizer seed-chain-align
  baseline (:class:`~repro.mapper.mm2.MapperConfig` defaults), over the
  same facade-owned minimizer index as that fallback;
* :class:`LongReadEngine` (``longread``) — pseudo-pairs + Location
  Voting (:class:`~repro.core.longread.LongReadConfig`) over the
  facade's warm SeedMap, so one memory-mapped index serves GenPair and
  long-read traffic.

The facade builds engines lazily (one instance per name, reused across
runs and daemon requests) and folds each run's ``run_stats`` into
per-engine totals with :func:`~repro.core.pipeline.merge_stats`.
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
from ..mapper.mm2 import MapperStats, Mm2LikeMapper
from ..util.diagnostics import note
from .config import MappingConfig, MappingConfigError

#: ``input_kind`` values: what one workload item is.
INPUT_PAIRED = "paired"    # (read1, read2, name) tuples / paired FASTQ
INPUT_SINGLE = "single"    # (codes, name) tuples / single-read FASTQ


def stats_dict(stats) -> dict:
    """A stats dataclass as plain JSON types (the wire/report form)."""
    return {spec.name: int(getattr(stats, spec.name))
            for spec in dataclasses.fields(stats)}


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


class Engine:
    """A mapping core behind the facade's protocol.

    A subclass declares ``name`` (the registry entry), ``input_kind``,
    ``stats_type`` (the core's per-run stats dataclass) and
    ``normalize`` (raw items to the core's tuples), and its constructor
    sets ``config`` (the facade's :class:`MappingConfig`), ``core``
    (the mapper, holder of the per-run ``stats``) and ``map_chunk``
    (the core's chunk call: normalized items in, one
    :class:`~repro.genome.MappingResult` each out).  The facade calls
    :meth:`begin_run`, :meth:`map_stream`, :meth:`finish_run` (fold
    deferred counters) and :meth:`run_stats` around every run,
    :meth:`fresh_stats` for its accumulators, :meth:`warm_up` /
    :meth:`close` for resources.
    """

    name: str = ""
    input_kind: str = INPUT_PAIRED
    stats_type: type = PipelineStats
    normalize = staticmethod(normalize_pairs)

    def begin_run(self) -> None:
        # Fresh per-run counters; previous totals live on in the facade.
        self.core.stats = self.stats_type()

    def map_stream(self, items: Iterable) -> Iterator[MappingResult]:
        for chunk in chunked(items, self.config.batch_size,
                             self.normalize):
            yield from self.map_chunk(chunk)

    def finish_run(self) -> None:
        pass

    def run_stats(self):
        return self.core.stats

    def fresh_stats(self):
        return self.stats_type()

    def warm_up(self) -> None:
        pass

    def close(self) -> None:
        pass


class GenPairEngine(Engine):
    """The paper's paired-end pipeline behind the Engine protocol.

    Owns the :class:`GenPairPipeline` and the lazily-created, **reused**
    :class:`StreamExecutor` worker pool.  Whether there is a pool is
    decided once, at construction (:func:`pool_available`); where
    ``workers > 1`` cannot be honoured the engine says so once and maps
    in-process — the output is identical either way.
    """

    name = "genpair"

    def __init__(self, facade) -> None:
        config: MappingConfig = facade.config
        self._pooled = pool_available(config.workers)
        if config.workers > 1 and not self._pooled:
            note("workers>1 needs os.fork, which this platform lacks; "
                 "mapping single-process instead")
        self.config = config
        fallback = None
        if config.full_fallback:
            # The O(genome) index waits for the first pair that needs
            # it, so a run that stays on the GenPair path starts
            # mmap-cheap — unless a pool will fork the pipeline: workers
            # must inherit the index, not each build their own.
            fallback = Mm2LikeMapper(
                facade.reference,
                index=facade.minimizer_index() if self._pooled
                else facade.minimizer_index)
        self.core = GenPairPipeline(
            facade.reference, seedmap=facade.seedmap,
            config=config.genpair(), fallback=fallback)
        self._executor = None

    # -- pool lifecycle ------------------------------------------------

    def _ensure_executor(self):
        if self._executor is None and self._pooled:
            self._executor = StreamExecutor(
                self.core, workers=self.config.workers,
                chunk_size=self.config.batch_size)
        return self._executor

    def warm_up(self) -> None:
        self._ensure_executor()

    # -- runs ----------------------------------------------------------

    def map_stream(self, items: Iterable) -> Iterator[MappingResult]:
        # No loop of its own: the pool and the pipeline each run the
        # base class's chunk loop over ``GenPairPipeline._map_chunk``.
        executor = self._ensure_executor()
        if executor is not None:
            yield from executor.map(items)
        else:
            yield from self.core.map_stream(
                items, chunk_size=self.config.batch_size)

    def finish_run(self) -> None:
        if self._executor is not None:
            self._executor.fold_stats()

    def close(self) -> None:
        if self._executor is not None:
            executor, self._executor = self._executor, None
            # close() folds residual worker stats into the pipeline's
            # current counters; nothing is lost.
            executor.close()


class Mm2Engine(Engine):
    """The minimizer seed-chain-align baseline behind the protocol.

    Paired-end input; the O(genome) minimizer index is the facade's,
    built when the first engine needs it (i.e. on the first
    ``engine="mm2"`` request against a warm facade, or the first GenPair
    fallback pair, never sooner).
    """

    name = "mm2"
    stats_type = MapperStats

    def __init__(self, facade) -> None:
        self.config = facade.config
        self.core = Mm2LikeMapper(facade.reference,
                                  index=facade.minimizer_index())
        self.map_chunk = self.core.map_pairs


class LongReadEngine(Engine):
    """Single-read long-read mapping behind the protocol.

    Shares the facade's SeedMap — one warm memory-mapped index serves
    both GenPair and long-read traffic — which is why the facade's
    ``seed_length``/``delta`` flow into :class:`LongReadConfig` and the
    pseudo-pair ``chunk_length`` must fit at least one seed.
    """

    name = "longread"
    input_kind = INPUT_SINGLE
    stats_type = LongReadStats
    normalize = staticmethod(_normalize_reads)

    def __init__(self, facade) -> None:
        config: MappingConfig = facade.config
        core_config = LongReadConfig(seed_length=config.seed_length,
                                     delta=config.delta)
        if core_config.chunk_length < config.seed_length:
            raise MappingConfigError(
                f"longread chunk_length ({core_config.chunk_length}) must "
                f"be >= seed_length ({config.seed_length}): each "
                "pseudo-pair chunk must hold at least one seed")
        self.config = config
        self.core = LongReadMapper(facade.reference,
                                   seedmap=facade.seedmap,
                                   config=core_config)
        self.map_chunk = self.core.map_reads
