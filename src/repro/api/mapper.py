"""The :class:`Mapper` facade: one object that owns a whole mapping setup.

:class:`Mapper` is **engine-polymorphic**: one facade (one reference,
one memory-mapped SeedMap index, one config) serves every registered
workload — the paired-end GenPair pipeline, the mm2-like baseline, and
single-read long-read mapping — through the same ``map`` /
``map_stream`` / ``map_file`` surface, emitting the common
:class:`~repro.genome.MappingResult` record whatever the engine.
Engine instances are built **lazily, once per engine name**, and reused
across calls (and daemon requests); the GenPair engine additionally
owns the persistent :class:`~repro.core.executor.StreamExecutor` worker
pool, created on first use and reused until :meth:`close`.

Output is equally pluggable: :meth:`write` and :meth:`lines` resolve
``sam`` / ``paf`` / ``jsonl`` through
:data:`~repro.api.registry.OUTPUT_FORMATS`, with the daemon's wire
lines byte-identical to file output by construction.
:meth:`map_and_call` chains :func:`repro.variants.call_variants` as an
optional post-stage: one pass over the result stream writes the
alignment file *and* piles up mapped records for variant calling.

Statistics have an explicit lifecycle: :attr:`last_stats` is the
just-completed run (typed by the engine that ran), :attr:`stats`
accumulates GenPair runs (the historical counters), and
:meth:`engine_stats` reports cumulative per-engine counters;
:meth:`reset_stats` rewinds the accumulators.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from ..core.executor import pool_available
from ..core.pipeline import PipelineStats, merge_stats
from ..genome.io_fasta import iter_pairs, iter_reads, read_fasta
from ..genome.reference import ReferenceGenome
from ..genome.results import MappingResult, result_records
from ..mapper import MapperConfig, MinimizerIndex
from ..obs import get_registry
from ..util.sync import maybe_sanitize_lock
from .config import MappingConfig, MappingConfigError
from .engines import INPUT_SINGLE, Engine, stats_dict
from .registry import engine_class, output_format

PathLike = Union[str, Path]


class Mapper:
    """Context-manager facade over index, engines, and worker pool.

    Construct through :meth:`from_index` or :meth:`from_reference`;
    the plain constructor accepts pre-built objects (the power-user
    seam the classmethods and the daemon share).

    One mapping run at a time: :meth:`map`, :meth:`map_file`, and the
    :meth:`map_stream` generator may be called repeatedly — engines and
    the worker pool persist between calls — but not concurrently (a
    second call while a stream is being consumed raises).  Every
    mapping call takes an optional ``engine=`` override; without it the
    config's ``engine`` runs.
    """

    def __init__(self, reference: ReferenceGenome, seedmap,
                 config: Optional[MappingConfig] = None,
                 index=None) -> None:
        self.config = (config if config is not None
                       else MappingConfig()).validate()
        self.config.resolve_stages()
        self.reference = reference
        self.seedmap = seedmap
        self.index = index
        self._engines: Dict[str, Engine] = {}
        # The serving tier resolves engines from connection threads
        # while the scheduler maps; the cache get-or-create below must
        # not double-build (a SanitizedLock under REPRO_SANITIZE=1).
        self._engines_lock = maybe_sanitize_lock("api.engines")
        self._minimizer_index = None
        self._minimizer_index_lock = maybe_sanitize_lock(
            "api.minimizer_index")
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

        With ``config=None`` the mapper adopts the index's fingerprint
        (``overrides`` tune the non-fingerprint knobs, e.g.
        ``workers=4`` or ``engine="longread"``).  An explicit
        ``config`` must agree with the index fingerprint exactly — a
        mismatch raises :class:`MappingConfigError` naming every
        conflicting field, so a stale index is rejected loudly instead
        of silently serving a differently-configured pipeline.
        """
        from ..index import open_index

        if config is not None and overrides:
            raise MappingConfigError(
                "pass either a full MappingConfig or keyword "
                "overrides, not both")
        verify = overrides.get("verify_index",
                               config.verify_index if config is not None
                               else True)
        index = open_index(path, verify=verify)
        if config is None:
            config = MappingConfig.from_fingerprint(index.fingerprint,
                                                    **overrides)
        else:
            problems = index.fingerprint.conflicts(
                seed_length=config.seed_length,
                filter_threshold=config.filter_threshold,
                step=config.step)
            if problems:
                raise MappingConfigError(
                    f"config does not match index {str(path)!r}: index "
                    f"was built with {'; '.join(problems)}; rebuild "
                    "the index or adopt its fingerprint with "
                    "MappingConfig.from_fingerprint")
        return cls(index.reference, index.seedmap, config=config,
                   index=index)

    @classmethod
    def from_reference(cls, reference: Union[PathLike, ReferenceGenome],
                       config: Optional[MappingConfig] = None,
                       **overrides: Any) -> "Mapper":
        """Build a mapper from a FASTA path or an in-memory reference.

        The SeedMap is built in-process with the config's fingerprint
        parameters — the pay-per-run path; prefer
        :meth:`from_index` + ``repro index build`` for repeated runs.
        """
        from ..core.seedmap import SeedMap

        if config is not None and overrides:
            raise MappingConfigError(
                "pass either a full MappingConfig or keyword "
                "overrides, not both")
        if config is None:
            config = MappingConfig(**overrides)
        if not isinstance(reference, ReferenceGenome):
            reference = read_fasta(reference)
        seedmap = SeedMap.build(reference,
                                seed_length=config.seed_length,
                                filter_threshold=config.filter_threshold,
                                step=config.step)
        return cls(reference, seedmap, config=config)

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

    def minimizer_index(self):
        """The traditional path's minimizer index, built on first call
        and shared — like :attr:`seedmap` — by the ``mm2`` engine and
        the GenPair fallback (same ``k``/``w``/``max_occurrences``)."""
        with self._minimizer_index_lock:
            if self._minimizer_index is None:
                defaults = MapperConfig()
                self._minimizer_index = MinimizerIndex.build(
                    self.reference, k=defaults.k, w=defaults.w,
                    max_occurrences=defaults.max_occurrences)
            return self._minimizer_index

    @property
    def pipeline(self):
        """The GenPair engine's pipeline (built on first access)."""
        return self.engine("genpair").core

    @property
    def _executor(self):
        """The GenPair worker pool, if it exists yet (tests and the
        lifecycle assertions peek here; ``None`` until the first
        pooled run or :meth:`warm_up`)."""
        engine = self._engines.get("genpair")
        return engine._executor if engine is not None else None

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

        The selected engine (and, for ``genpair`` with
        ``config.workers > 1``, its worker pool) is created on the
        first call and **reused** by every later one; per-run
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
            engine.finish_run()
            stats = engine.run_stats()
            self.last_stats = stats
            self.last_engine = engine.name
            merge_stats(self._totals[engine.name], stats)
            self._record_run(engine.name, stats,
                             time.perf_counter() - started)
            self._running = False

    @staticmethod
    def _record_run(name: str, stats, elapsed: float) -> None:
        """Fold one completed run into the metrics registry.

        Once per *run* (never per pair), so it costs nothing on the
        hot path; the counter folds are bit-identical between
        ``workers=1`` and ``workers=N`` because the stats they mirror
        already are.
        """
        obs = get_registry()
        if not obs.enabled:
            return
        obs.counter(f"engine.{name}.runs").inc()
        obs.histogram(f"engine.{name}.run_s").observe(elapsed)
        for field, value in stats_dict(stats).items():
            obs.counter(f"engine.{name}.{field}").inc(value)

    # -- output --------------------------------------------------------

    def _resolve_format(self, name: Optional[str], results):
        """The named output format — closing a ``results`` generator
        first if the name doesn't resolve, so a bad format never
        leaves a primed run claiming the one-run-at-a-time slot."""
        try:
            return output_format(name if name is not None
                                 else self.config.output_format)
        except Exception:
            close = getattr(results, "close", None)
            if close is not None:
                close()
            raise

    def write(self, results: Iterable, path: PathLike,
              format: Optional[str] = None) -> int:
        """Drain mapping results into ``path`` in the named output
        format (default: the config's ``output_format``); returns the
        record-line count.  Closes a generator stream even on error,
        so the worker pool never leaks in-flight chunks."""
        fmt = self._resolve_format(format, results)
        obs = get_registry()
        started = time.perf_counter() if obs.enabled else 0.0
        with fmt.open(path, self.reference) as writer:
            try:
                writer.drain(results)
            finally:
                close = getattr(results, "close", None)
                if close is not None:
                    close()
            count = writer.count
        if obs.enabled:
            obs.histogram(f"output.{fmt.name}.write_s").observe(
                time.perf_counter() - started)
            obs.counter(f"output.{fmt.name}.records").inc(count)
        return count

    def lines(self, results: Iterable, format: Optional[str] = None,
              header: bool = True) -> Iterator[str]:
        """Render results as text lines (the daemon's wire form).

        With ``header=True`` the format's header lines come first, so
        concatenating the lines with newlines reproduces :meth:`write`
        output byte for byte — for every registered format.
        """
        fmt = self._resolve_format(format, results)
        stream = fmt.lines(results, self.reference, header=header)
        if not get_registry().enabled:
            return stream
        return self._counted_lines(stream, fmt.name)

    @staticmethod
    def _counted_lines(stream: Iterator[str],
                       format_name: str) -> Iterator[str]:
        """Yield ``stream`` unchanged while counting wire lines; the
        counter lands even when the consumer abandons the stream early
        (the underlying generator is closed in the same finally)."""
        emitted = 0
        try:
            for line in stream:
                emitted += 1
                yield line
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()
            get_registry().counter(
                f"output.{format_name}.wire_lines").inc(emitted)

    # -- variant-calling post-stage ------------------------------------

    def map_and_call(self, results: Iterable, out: PathLike,
                     vcf_out: PathLike,
                     format: Optional[str] = None) -> tuple:
        """Write results to ``out`` AND call variants to ``vcf_out``.

        One pass over the (possibly lazy) result stream: each result is
        written in the named output format while its mapped records are
        piled up; when the stream ends,
        :func:`repro.variants.call_variants` runs over the pileup and
        the calls are written as VCF.  Returns ``(record_lines,
        variant_calls)``.
        """
        from ..variants import Pileup, call_variants, write_vcf

        fmt = self._resolve_format(format, results)
        pileup = Pileup(self.reference)
        with fmt.open(out, self.reference) as writer:
            try:
                for result in results:
                    writer.write_result(result)
                    for record in result_records(result):
                        if record.mapped and record.read_codes is not None:
                            pileup.add_record(record)
            finally:
                close = getattr(results, "close", None)
                if close is not None:
                    close()
            records = writer.count
        calls = call_variants(pileup)
        count = write_vcf(vcf_out, calls, reference=self.reference)
        return records, count

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

    @property
    def uses_pool(self) -> bool:
        """Will ``genpair`` mapping runs go through a persistent worker
        pool?  (The other engines always map in-process.)"""
        return pool_available(self.config.workers)

    def warm_up(self, engine: Optional[str] = None) -> "Mapper":
        """Build the named engine (default: the config's) before the
        first run — including the GenPair worker pool, if configured.

        Mapping calls do this lazily; the daemon calls it at startup
        instead, so the pool fork happens while the process is still
        single-threaded and the first request hits a warm engine.
        """
        self._assert_open()
        self.engine(engine).warm_up()
        if self.uses_pool:
            # Whatever the default engine, a configured pool belongs to
            # genpair: fork it now, pre-threads, so a later per-request
            # engine switch doesn't fork inside a threaded daemon.
            self.engine("genpair").warm_up()
        return self

    def _assert_open(self) -> None:
        if self._closed:
            raise RuntimeError("Mapper is closed")

    def close(self) -> None:
        """Shut every engine (and the worker pool) down and mark the
        mapper closed.

        Idempotent.  The memory-mapped index views stay valid for
        already-returned results; no further mapping calls are
        accepted.
        """
        if self._closed:
            return
        self._closed = True
        for engine in self._engines.values():
            engine.close()

    def __enter__(self) -> "Mapper":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
