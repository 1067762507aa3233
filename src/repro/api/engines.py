"""Engine adapters: one protocol, three mapping engines.

Every workload flows through the :class:`~repro.api.Mapper` facade's
``map``/``map_stream``/``map_file`` as one result type,
:class:`~repro.genome.MappingResult`: each mapping core builds it in
its chunk call and the engine passes it on untouched.  An
:class:`Engine` is that chunk call plus the loop and the per-run
statistics lifecycle around it, and a constructor that builds the core
with the values :class:`~repro.api.config.MappingConfig` carries for it
(``seed_length``, ``filter_threshold``, ``delta``); every other
algorithm parameter is a constant of the core's module.
The adapters listed in :data:`~repro.api.registry.ENGINES`:

* :class:`GenPairEngine` (``genpair``) — the paper's
  :class:`~repro.core.pipeline.GenPairPipeline`.  With
  ``full_fallback`` the pipeline's ``fallback=`` is an
  :class:`~repro.mapper.mm2.Mm2LikeMapper`;
* :class:`Mm2Engine` (``mm2``) — the minimizer seed-chain-align
  baseline (:mod:`repro.mapper.mm2`'s constants), over the same
  facade-owned minimizer index as that fallback;
* :class:`LongReadEngine` (``longread``) — pseudo-pairs + Location
  Voting (:class:`~repro.core.longread.LongReadMapper`) over the
  facade's warm SeedMap, so one memory-mapped index serves GenPair and
  long-read traffic.

The facade builds engines lazily (one instance per name, reused across
runs and daemon requests) and folds each run's ``run_stats`` into
per-engine totals with :func:`~repro.core.pipeline.merge_stats`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

from ..core.longread import CHUNK_LENGTH, LongReadMapper, LongReadStats
from ..core.pipeline import (GenPairPipeline, PipelineStats, chunked,
                             normalize_pairs)
from ..genome.results import MappingResult
from ..mapper.mm2 import MapperStats, Mm2LikeMapper
from .config import MappingConfig, MappingConfigError

#: ``input_kind`` values: what one workload item is.
INPUT_PAIRED = "paired"    # (read1, read2, name) tuples / paired FASTQ
INPUT_SINGLE = "single"    # (codes, name) tuples / single-read FASTQ


def stats_dict(stats) -> dict:
    """A stats dataclass as plain JSON types (the wire/report form),
    in field order: its instance dictionary holds exactly the fields."""
    return {name: int(value) for name, value in vars(stats).items()}


def _normalize_reads(items: Iterable, first_index: int = 0
                     ) -> List[Tuple[np.ndarray, str]]:
    """Coerce single-read inputs to ``(codes, name)`` tuples.

    Accepts what the paired normalizer accepts, one read at a time:
    ``(codes[, name])`` tuples (the :func:`~repro.genome.iter_reads`
    shape), objects with ``codes``/``name`` (e.g. ``SimulatedRead``),
    and bare code arrays (named ``read{N}`` by stream position);
    anything else raises :class:`TypeError` naming that position.
    """
    out: List[Tuple[np.ndarray, str]] = []
    for index, item in enumerate(items, start=first_index):
        if hasattr(item, "codes"):
            out.append((item.codes, item.name))
        elif isinstance(item, np.ndarray):
            out.append((item, f"read{index}"))
        elif isinstance(item, (tuple, list)) and len(item) in (1, 2) \
                and isinstance(item[0], np.ndarray):
            name = item[1] if len(item) > 1 else f"read{index}"
            out.append((item[0], str(name)))
        else:
            raise TypeError(
                f"read {index} of the stream is {item!r:.60}: expected "
                "a code array, a (codes[, name]) tuple or an object with "
                "codes and name")
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
    :meth:`begin_run`, :meth:`map_stream` and :meth:`run_stats` around
    every run, and :meth:`fresh_stats` for its accumulators.
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

    def run_stats(self):
        return self.core.stats

    def fresh_stats(self):
        return self.stats_type()


class GenPairEngine(Engine):
    """The paper's paired-end pipeline behind the Engine protocol.

    With ``full_fallback`` the pipeline's ``fallback=`` is an
    :class:`~repro.mapper.mm2.Mm2LikeMapper` over the facade's
    minimizer index.
    """

    name = "genpair"

    def __init__(self, facade) -> None:
        config: MappingConfig = facade.config
        self.config = config
        fallback = None
        if config.full_fallback:
            fallback = Mm2LikeMapper(facade.reference,
                                     index=facade.minimizers)
        self.core = GenPairPipeline(
            facade.reference, seedmap=facade.seedmap,
            config=config.genpair(), fallback=fallback)

    def map_stream(self, items: Iterable) -> Iterator[MappingResult]:
        # The pipeline's own stream, not the base class loop: perf's
        # ``core.pipeline`` layer times ``GenPairPipeline.map_stream``.
        yield from self.core.map_stream(
            items, chunk_size=self.config.batch_size)


class Mm2Engine(Engine):
    """The minimizer seed-chain-align baseline behind the protocol.

    Paired-end input; the minimizer index is the facade's, the one the
    GenPair fallback seeds from too.
    """

    name = "mm2"
    stats_type = MapperStats

    def __init__(self, facade) -> None:
        self.config = facade.config
        self.core = Mm2LikeMapper(facade.reference, index=facade.minimizers)
        self.map_chunk = self.core.map_pairs


class LongReadEngine(Engine):
    """Single-read long-read mapping behind the protocol.

    Shares the facade's SeedMap — one warm memory-mapped index serves
    both GenPair and long-read traffic — which is why the facade's
    ``seed_length``/``delta`` flow into :class:`LongReadMapper` and a
    pseudo-pair chunk (:data:`~repro.core.longread.CHUNK_LENGTH`) must
    fit at least one seed.
    """

    name = "longread"
    input_kind = INPUT_SINGLE
    stats_type = LongReadStats
    normalize = staticmethod(_normalize_reads)

    def __init__(self, facade) -> None:
        config: MappingConfig = facade.config
        if CHUNK_LENGTH < config.seed_length:
            raise MappingConfigError(
                f"longread chunk_length ({CHUNK_LENGTH}) must be >= "
                f"seed_length ({config.seed_length}): each pseudo-pair "
                "chunk must hold at least one seed")
        self.config = config
        self.core = LongReadMapper(facade.reference,
                                   seedmap=facade.seedmap,
                                   seed_length=config.seed_length,
                                   delta=config.delta)
        self.map_chunk = self.core.map_reads
