"""The :class:`Mapper` facade: one object that owns a whole mapping setup.

:class:`Mapper` is **engine-polymorphic**: one facade (one
:class:`~repro.index.MappingIndex`, one config) serves every registered
workload — the paired-end GenPair pipeline, the mm2-like baseline, and
single-read long-read mapping — through the same ``map`` /
``map_stream`` / ``map_file`` surface, emitting the common
:class:`~repro.genome.MappingResult` record whatever the engine.
Engine instances are built **lazily, once per engine name**, and reused
across calls (and daemon requests); every engine maps in this process.

Output is equally pluggable: :meth:`write` and :meth:`lines` run the
named row of :data:`~repro.api.registry.OUTPUT_FORMATS` through one
line stream, so the daemon's wire lines are byte-identical to file
output by construction.  Variant calling
is not a mapping stage: ``repro call`` (or
:func:`repro.variants.sam_records` into a
:class:`~repro.variants.Pileup`) reads the SAM file :meth:`write`
wrote, whose records pile up exactly as the in-memory ones.

Statistics have an explicit lifecycle: :attr:`last_stats` is the
just-completed run (typed by the engine that ran), :attr:`stats`
accumulates GenPair runs (the historical counters), and
:meth:`engine_stats` reports cumulative per-engine counters;
:meth:`reset_stats` rewinds the accumulators.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from ..core.pipeline import PipelineStats, merge_stats
from ..genome.io_fasta import iter_pairs, iter_reads, read_fasta
from ..genome.reference import ReferenceGenome
from ..genome.results import (MappingResult, OutputFormat,
                              ResultLineWriter, line_batches)
from ..index import MappingIndex, build_index, open_index
from ..obs import get_registry
from ..util.sync import maybe_sanitize_lock
from .config import MappingConfig, MappingConfigError
from .engines import INPUT_SINGLE, Engine, stats_dict
from .registry import engine_class, output_format

PathLike = Union[str, Path]


class Mapper:
    """Context-manager facade over one index and its engines.

    Stands on a :class:`~repro.index.MappingIndex`: opened from a file
    by :meth:`from_index`, built from a reference by
    :meth:`from_reference`, or handed in directly.

    One mapping run at a time: :meth:`map`, :meth:`map_file`, and the
    :meth:`map_stream` generator may be called repeatedly — engines
    persist between calls — but not concurrently (a
    second call while a stream is being consumed raises).  Every
    mapping call takes an optional ``engine=`` override; without it the
    config's ``engine`` runs.
    """

    def __init__(self, index: MappingIndex,
                 config: Optional[MappingConfig] = None) -> None:
        """Map over ``index`` under ``config`` (default: the defaults
        under the index's fingerprint).

        The one check that the config suits the index: a fingerprint
        mismatch raises :class:`MappingConfigError` naming each field,
        so a stale index is rejected loudly instead of silently serving
        a differently-configured pipeline.
        """
        if config is None:
            config = MappingConfig(**dataclasses.asdict(index.fingerprint))
        self.config = config.validate()
        self.config.resolve_stages()
        problems = index.fingerprint.conflicts(self.config.fingerprint())
        if problems:
            source = ("the in-memory index" if index.path is None
                      else f"index {index.path!r}")
            raise MappingConfigError(
                f"index fingerprint mismatch: {source} was built with "
                f"{'; '.join(problems)}; rebuild the index or adopt its "
                "fingerprint (Mapper.from_index)")
        self.index = index
        self.reference = index.reference
        #: The two tables every engine shares: GenPair's SeedMap and the
        #: traditional path's minimizer index (the ``mm2`` engine and
        #: the GenPair fallback).
        self.seedmap = index.seedmap
        self.minimizers = index.minimizers
        self._engines: Dict[str, Engine] = {}
        # The serving tier resolves engines from connection threads
        # while the scheduler maps; the cache get-or-create below must
        # not double-build (a SanitizedLock under REPRO_SANITIZE=1).
        self._engines_lock = maybe_sanitize_lock("api.engines")
        self._totals: Dict[str, Any] = {}
        self.last_stats = PipelineStats()
        self.last_engine: Optional[str] = None
        self._running = False
        self._closed = False

    # -- construction --------------------------------------------------

    @classmethod
    def from_index(cls, path: PathLike,
                   config: Optional[MappingConfig] = None,
                   **overrides: Any) -> "Mapper":
        """Open a persistent index and build a mapper over it.

        With ``config=None`` the mapper adopts the index's fingerprint,
        and ``overrides`` tune the other knobs (e.g. ``batch_size=64``
        or ``engine="longread"``); a fingerprint field among them is an
        expectation the index must meet.
        """
        if config is not None and overrides:
            raise MappingConfigError(
                "pass either a full MappingConfig or keyword "
                "overrides, not both")
        verify = overrides.get("verify_index",
                               config.verify_index if config is not None
                               else True)
        index = open_index(path, verify=verify)
        if config is None:
            config = MappingConfig(**{**dataclasses.asdict(
                index.fingerprint), **overrides})
        return cls(index, config)

    @classmethod
    def from_reference(cls, reference: Union[PathLike, ReferenceGenome],
                       config: Optional[MappingConfig] = None,
                       **overrides: Any) -> "Mapper":
        """Build a mapper from a FASTA path or an in-memory reference.

        The index is built in-process under the config's fingerprint —
        the pay-per-run path; prefer :meth:`from_index` + ``repro index
        build`` for repeated runs.
        """
        if config is not None and overrides:
            raise MappingConfigError(
                "pass either a full MappingConfig or keyword "
                "overrides, not both")
        if config is None:
            config = MappingConfig(**overrides)
        if not isinstance(reference, ReferenceGenome):
            reference = read_fasta(reference)
        return cls(build_index(reference, config.seed_length,
                               config.filter_threshold), config)

    # -- engines -------------------------------------------------------

    def engine(self, name: Optional[str] = None) -> Engine:
        """The engine instance for ``name`` (default: the config's).

        Built lazily on first request and reused afterwards — the
        warm-facade property per-request engine selection in the
        daemon relies on.  Unknown names raise
        :class:`~repro.api.registry.RegistryError` listing the
        registered engines.
        """
        self._assert_open()
        name = name if name is not None else self.config.engine
        with self._engines_lock:
            engine = self._engines.get(name)
            if engine is None:
                engine = engine_class(name)(self)
                self._engines[name] = engine
                self._totals.setdefault(name, engine.fresh_stats())
        return engine

    @property
    def pipeline(self):
        """The GenPair engine's pipeline (built on first access)."""
        return self.engine("genpair").core

    # -- mapping -------------------------------------------------------

    def map(self, items: Iterable,
            engine: Optional[str] = None) -> List[MappingResult]:
        """Map items eagerly; returns results in input order.

        Paired engines accept ``(read1, read2[, name])`` tuples of code
        arrays or objects with ``read1``/``read2``/``name``; the
        single-read ``longread`` engine accepts ``(codes, name)``
        tuples, objects with ``codes``/``name``, or bare code arrays.
        """
        return list(self.map_stream(items, engine=engine))

    def map_stream(self, items: Iterable,
                   engine: Optional[str] = None
                   ) -> Iterator[MappingResult]:
        """Map a lazy item stream, yielding results as chunks finish.

        The selected engine is created on the first call and
        **reused** by every later one; per-run
        statistics land in :attr:`last_stats` when the returned
        generator is exhausted or closed.
        """
        self._assert_open()
        if self._running:
            raise RuntimeError("Mapper is already mapping; one run at "
                               "a time")
        generator = self._run(items, self.engine(engine))
        # Prime to the handshake yield: the run slot is claimed *now*,
        # at call time — a second stream created before this one is
        # consumed raises above instead of silently interleaving — and
        # a started generator's finally is guaranteed to release it
        # even if the stream is abandoned unconsumed.
        next(generator)
        return generator

    def map_file(self, reads1: PathLike,
                 reads2: Optional[PathLike] = None,
                 engine: Optional[str] = None) -> Iterator[MappingResult]:
        """Map FASTQ file(s), streaming in O(batch) memory.

        Paired engines take two paired FASTQ paths; the single-read
        ``longread`` engine takes exactly one.  The wrong arity for the
        selected engine raises :class:`MappingConfigError` naming the
        engine and what it expects.
        """
        selected = self.engine(engine)
        chunk = self.config.batch_size
        if selected.input_kind == INPUT_SINGLE:
            if reads2 is not None:
                raise MappingConfigError(
                    f"engine {selected.name!r} maps single-read FASTQ; "
                    "pass one reads file, not two")
            stream = iter_reads(reads1, chunk_size=chunk)
        else:
            if reads2 is None:
                raise MappingConfigError(
                    f"engine {selected.name!r} maps paired FASTQ; pass "
                    "both reads1 and reads2")
            stream = iter_pairs(reads1, reads2, chunk_size=chunk)
        return self.map_stream(stream, engine=selected.name)

    def _run(self, items: Iterable,
             engine: Engine) -> Iterator[MappingResult]:
        self._running = True
        started = time.perf_counter()
        try:
            # Fresh per-run counters; the previous run's totals live
            # on in the per-engine accumulators / last_stats.
            engine.begin_run()
            yield None  # handshake consumed by map_stream's prime
            yield from engine.map_stream(items)
        finally:
            stats = engine.run_stats()
            self.last_stats = stats
            self.last_engine = engine.name
            self._record_run(engine.name, stats,
                             time.perf_counter() - started)
            self._running = False

    def _record_run(self, name: str, stats, elapsed: float) -> None:
        """Fold one completed run into the engine's totals and, in one
        :meth:`~repro.obs.MetricsRegistry.fold` call, into the metrics
        registry (``engine.<name>.runs``, ``.run_s`` and one counter
        per stats field).

        Once per *run*, whatever its size, and not free: about 6.4 µs
        of a one-pair GenPair run's ~0.23 ms, measured on a 2-vCPU
        x86-64 host (12–13 µs with one locked increment per field).
        """
        merge_stats(self._totals[name], stats)
        obs = get_registry()
        if not obs.enabled:
            return
        prefix = f"engine.{name}."
        counts = [(prefix + "runs", 1)]
        counts += [(prefix + field, value)
                   for field, value in stats_dict(stats).items()]
        obs.fold(counts, ((prefix + "run_s", elapsed),))

    # -- output --------------------------------------------------------

    def write(self, results: Iterable, path: PathLike,
              format: Optional[str] = None) -> int:
        """Drain mapping results into ``path`` in the named output
        format (default: the config's ``output_format``); returns the
        record-line count.  Closes a generator stream whatever happens
        (an unknown format, an output that cannot be opened), so an
        abandoned run still releases the run slot."""
        obs = get_registry()
        started = time.perf_counter() if obs.enabled else 0.0
        try:
            fmt = self._format(format)
            with ResultLineWriter(path, fmt, self.reference) as writer:
                writer.drain(results)
        finally:
            _close(results)
        if obs.enabled:
            obs.histogram(f"output.{fmt.name}.write_s").observe(
                time.perf_counter() - started)
            obs.counter(f"output.{fmt.name}.records").inc(writer.count)
        return writer.count

    def lines(self, results: Iterable, format: Optional[str] = None,
              header: bool = True) -> Iterator[str]:
        """Render results as text lines (the daemon's wire form): the
        lists :meth:`write` writes, flattened, so with ``header=True``
        the lines joined with newlines are :meth:`write`'s file.  An
        unknown format raises here, after closing a ``results``
        generator."""
        try:
            fmt = self._format(format)
        except Exception:
            _close(results)
            raise
        obs = get_registry()
        wire = (obs.counter(f"output.{fmt.name}.wire_lines")
                if obs.enabled else None)

        def flattened() -> Iterator[str]:
            for batch in line_batches(fmt, results, self.reference,
                                      header):
                if wire is not None:
                    wire.inc(len(batch))
                yield from batch

        return flattened()

    def _format(self, name: Optional[str]) -> OutputFormat:
        return output_format(name if name is not None
                             else self.config.output_format)

    # -- statistics lifecycle ------------------------------------------

    @property
    def stats(self) -> PipelineStats:
        """GenPair counters accumulated over all completed ``genpair``
        runs since construction or the last :meth:`reset_stats` (the
        in-progress run, if any, is not included until it finishes).
        Per-engine accumulators live in :meth:`engine_stats`."""
        return self._totals.setdefault("genpair", PipelineStats())

    def engine_stats(self) -> Dict[str, Dict[str, int]]:
        """Cumulative counters per engine that has run, as plain
        dictionaries keyed by engine name."""
        return {name: stats_dict(total)
                for name, total in sorted(self._totals.items())}

    def reset_stats(self) -> None:
        """Zero the cumulative counters (and :attr:`last_stats`)."""
        self._totals = {name: engine.fresh_stats()
                        for name, engine in self._engines.items()}
        self.last_stats = PipelineStats()
        self.last_engine = None

    # -- lifecycle -----------------------------------------------------

    def warm_up(self, engine: Optional[str] = None) -> "Mapper":
        """Build the named engine (default: the config's) before the
        first run.

        Mapping calls do this lazily; the daemon calls it at startup
        instead, so the first request hits a warm engine.
        """
        self.engine(engine)
        return self

    def _assert_open(self) -> None:
        if self._closed:
            raise RuntimeError("Mapper is closed")

    def close(self) -> None:
        """Mark the mapper closed.

        Idempotent.  The memory-mapped index views stay valid for
        already-returned results; no further mapping calls are
        accepted.
        """
        self._closed = True

    def __enter__(self) -> "Mapper":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _close(results) -> None:
    """Close ``results`` if it is a generator (a no-op on a list)."""
    close = getattr(results, "close", None)
    if close is not None:
        close()
