"""``repro.obs`` — metrics, span tracing, and live introspection.

The observability floor under the whole system: one process-wide
:class:`MetricsRegistry` (counters, gauges, fixed-bucket latency
histograms) that every layer records into, plus lightweight
:func:`span` tracing with a shared no-op when inactive.

What is instrumented where:

* :class:`~repro.core.pipeline.GenPairPipeline` — per-chunk
  ``pipeline.seed_query_s`` / ``pipeline.filter_align_s`` histograms
  and ``pipeline.chunks`` / ``pipeline.pairs`` counters (recorded
  once per chunk, so the hot path stays within 3% of uninstrumented —
  gated in ``benchmarks/bench_batch_throughput.py``);
* :class:`~repro.core.executor.StreamExecutor` — worker-side
  ``executor.chunk_s`` / ``executor.w<N>.chunk_s`` /
  ``executor.queue_wait_s`` histograms recorded with fork-safe plain
  counters and folded through the ordered-merge path, parent-side
  ``executor.dispatch_depth`` / ``executor.run_s`` and the
  ``executor.workers`` gauge;
* every engine — ``engine.<name>.runs``, ``engine.<name>.run_s``, and
  the engine's stats counters folded as ``engine.<name>.<field>``;
* the output formats — ``output.<fmt>.records`` /
  ``output.<fmt>.wire_lines`` / ``output.<fmt>.write_s``;
* the serve daemon — ``serve.requests.<op>`` / ``serve.errors``
  counters and ``serve.request_s.<op>`` /
  ``serve.map_s.<engine>.<format>`` histograms.

Surfaces: the daemon's expanded ``stats`` reply (full registry
snapshot + host metadata), ``repro stats`` / ``repro top`` client
views, ``repro map --metrics-json PATH``, and the per-request
``trace`` flag returning a span breakdown.
"""

from __future__ import annotations

from .metrics import (BUCKET_BOUNDS, Counter, Gauge, Histogram,
                      MetricsRegistry, get_registry, host_metadata,
                      metrics_enabled, set_metrics_enabled,
                      write_metrics_json)
from .render import (format_seconds, render_metrics, render_top,
                     snapshot_quantile, worker_utilization)
from .trace import (SpanRecord, Tracer, active_tracer, capture_trace,
                    span)

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "Tracer",
    "active_tracer",
    "capture_trace",
    "format_seconds",
    "get_registry",
    "host_metadata",
    "metrics_enabled",
    "render_metrics",
    "render_top",
    "set_metrics_enabled",
    "snapshot_quantile",
    "span",
    "worker_utilization",
    "write_metrics_json",
]
