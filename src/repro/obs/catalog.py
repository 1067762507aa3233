"""The declared metric catalog: every name the registry may record.

PR 7 scattered dozens of string-literal metric names across the
pipeline, executor, engines, writers, and daemon, with nothing keeping
the record sites, the ``repro stats``/``top`` render tables, and the
README catalog in agreement.  This module is now the single source of
truth: a **static** metric is a fixed dotted name; a **family** is a
template whose ``*`` segments are filled at run time (worker numbers,
engine names, output formats, request ops).  The ``repro lint``
obs-contract checker (RPL901–RPL903) verifies, from the AST, that

* every literal name at a ``counter``/``gauge``/``histogram`` call
  site is declared here with the matching kind,
* every dynamic (f-string) name matches a declared family template,
* the renderers in :mod:`repro.obs.render` and the README's metric
  table reference only declared names — catalog drift is a finding.

Both tables are plain literals so the checker can read them without
importing this module (fixture trees never execute).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Fixed metric names: ``name -> (kind, description)``.
STATIC_METRICS: Dict[str, Tuple[str, str]] = {
    "pipeline.chunks": (
        "counter", "chunks through the batched pipeline engine"),
    "pipeline.pairs": (
        "counter", "pairs through the batched pipeline engine"),
    "pipeline.seed_query_s": (
        "histogram", "per-chunk seed hash+probe stage seconds"),
    "pipeline.filter_align_s": (
        "histogram", "per-chunk filter+align stage seconds"),
    "executor.chunks": (
        "counter", "chunks mapped by pool workers"),
    "executor.chunk_s": (
        "histogram", "worker-side per-chunk map seconds"),
    "executor.queue_wait_s": (
        "histogram", "task-queue wait before a worker picked a chunk"),
    "executor.dispatch_depth": (
        "histogram", "in-flight chunks after each submit"),
    "executor.run_s": (
        "histogram", "wall seconds per executor map() run"),
    "executor.workers": (
        "gauge", "worker processes in the live pool"),
    "serve.errors": (
        "counter", "daemon requests that raised"),
    "serve.busy": (
        "counter", "requests refused under load (queue full or "
                   "client limit)"),
    "serve.timeouts": (
        "counter", "requests whose deadline expired"),
    "serve.queue_depth": (
        "gauge", "mapping requests waiting in the scheduler queue"),
    "serve.queue_wait_s": (
        "histogram", "queue wait before the scheduler ran a request"),
    "serve.batch_requests": (
        "histogram", "requests coalesced into each engine run"),
    "serve.batch_items": (
        "histogram", "workload items (pairs/reads) per coalesced run"),
}

#: Dynamic name families: ``(template, kind, description)``.  A ``*``
#: stands for exactly the run-time-interpolated span of the name
#: (worker number, engine, format, stats field, request op).  Order
#: matters: the first matching template wins, so the specific
#: ``engine.*.runs``/``run_s`` rows precede the catch-all stats row.
METRIC_FAMILIES: Tuple[Tuple[str, str, str], ...] = (
    ("executor.w*.chunk_s", "histogram",
     "per-worker per-chunk map seconds"),
    ("engine.*.runs", "counter", "completed runs per engine"),
    ("engine.*.run_s", "histogram", "wall seconds per engine run"),
    ("engine.*.*", "counter",
     "every engine stats field, folded once per run"),
    ("output.*.records", "counter", "records written per format"),
    ("output.*.wire_lines", "counter",
     "wire lines rendered per format"),
    ("output.*.write_s", "histogram", "file-write seconds per format"),
    ("serve.requests.*", "counter", "daemon requests per op"),
    ("serve.request_s.*", "histogram",
     "daemon request seconds per op"),
    ("serve.map_s.*.*", "histogram",
     "daemon map seconds per engine and format"),
)
