"""Lightweight span tracing: ``with span("seed.query_batch"): ...``.

A span names one timed region of the dataflow.  When no tracer is
active — the normal case — :func:`span` returns one *shared* no-op
context manager, so an instrumented hot path pays a dict-free global
read and two empty method calls per region and nothing else.  When a
tracer is active (:func:`capture_trace`, used by the daemon's
``trace`` request flag), every span records ``(name, depth,
started_s, elapsed_s)`` into a flat list, nesting tracked by depth.

Tracing is deliberately per-thread-unaware: the daemon captures under
its ``_map_lock``, where exactly one request maps at a time, and the
offline CLI is single-threaded.  Spans inside *forked worker
processes* are not captured — the pooled GenPair engine's per-chunk
stage breakdown arrives as metrics histograms instead (see
:mod:`repro.obs.metrics`).

Span-name catalog (what instrumented layers emit today):

======================  ================================================
``serve.map``           one daemon map request's mapping phase
``serve.render``        one daemon map request's output rendering
``seed.query_batch``    one chunk's batched seeding + SeedMap probe
``pair.filter_align``   one chunk's per-pair filtering + alignment
``mm2.seeding``         one chunk's minimizer extraction + index probe
``mm2.chaining``        one chunk's chaining sweep (every read and strand)
``mm2.alignment``       one chunk's chain alignment (every chain of every read)
``mm2.pairing``         one pair's best-combination search
``mm2.rescue``          one chunk-wide wave of mate rescues (votes + DP)
======================  ================================================

``mm2.seeding``, ``mm2.chaining`` and ``mm2.alignment`` are per chunk
because the mapper seeds, chains and chain-aligns a chunk at a time
(``Mm2LikeMapper.map_pairs``; a lone ``map_pair`` is a chunk of one);
``mm2.pairing`` stays per pair, and ``mm2.rescue`` comes once per wave
that has a mate to rescue (read 2 near read 1, then read 1 near read 2:
at most two per chunk).  The ``mm2.*`` spans also appear nested
under ``pair.filter_align`` when the baseline mapper runs as GenPair's
full-DP fallback (once per chunk, over the pairs of it that need one);
:func:`repro.analysis.profile_breakdown` sums them into Fig 1, rescue
into alignment.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union


@dataclass
class SpanRecord:
    """One completed span: what ran, how nested, and for how long."""

    name: str
    depth: int
    started_s: float
    elapsed_s: float

    def to_dict(self) -> Dict[str, Union[str, int, float]]:
        return {"name": self.name, "depth": self.depth,
                "started_s": round(self.started_s, 6),
                "elapsed_s": round(self.elapsed_s, 6)}


class _NoopSpan:
    """The shared do-nothing span (tracer inactive)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: One instance for every untraced span — no allocation on the hot path.
_NOOP = _NoopSpan()


class _Span:
    """A recording span: times itself and appends to its tracer."""

    __slots__ = ("_tracer", "_name", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._tracer._depth += 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        tracer = self._tracer
        tracer._depth -= 1
        tracer.records.append(SpanRecord(
            name=self._name, depth=tracer._depth,
            started_s=self._start - tracer._origin,
            elapsed_s=elapsed))
        return None


class Tracer:
    """Collects :class:`SpanRecord` entries while active.

    Spans append on *exit*, so a parent span follows its children in
    :attr:`records`; ``started_s`` (relative to tracer start) restores
    chronological order for rendering.
    """

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self._depth = 0
        self._origin = time.perf_counter()

    def to_dicts(self) -> List[Dict[str, Union[str, int, float]]]:
        """The captured spans as JSON-ready dicts, in start order."""
        ordered = sorted(self.records, key=lambda r: r.started_s)
        return [record.to_dict() for record in ordered]


#: The active tracer, or ``None`` (the no-op fast path).
_TRACER: Optional[Tracer] = None


def span(name: str):
    """A context manager timing one named region.

    Returns the shared no-op instance when no tracer is active — the
    near-zero-overhead property the pipeline hot path relies on.
    """
    tracer = _TRACER
    if tracer is None:
        return _NOOP
    return _Span(tracer, name)


def active_tracer() -> Optional[Tracer]:
    """The currently installed tracer, if any."""
    return _TRACER


@contextmanager
def capture_trace() -> Iterator[Tracer]:
    """Activate a fresh :class:`Tracer` for the ``with`` body.

    Nested captures stack (the previous tracer is restored on exit).
    The daemon wraps one request's mapping + rendering in this to
    answer the ``trace`` request flag.
    """
    global _TRACER
    tracer = Tracer()
    previous = _TRACER
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous
