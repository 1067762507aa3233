"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per process (:func:`get_registry`) holds
every metric the instrumented layers record — pipeline stage timings,
executor queue waits, per-engine run counters, daemon request
latencies.  Four properties drive the design:

* **Fork safety.**  Metric *objects* are plain Python ints/floats in
  plain dicts — no file descriptors, nothing per-registry the forked
  :func:`~repro.core.executor._stream_worker` children could corrupt
  or deadlock on.  Workers record into a *fresh per-chunk registry*
  and ship :meth:`MetricsRegistry.snapshot` dictionaries back through
  the existing ordered-merge path; the parent folds them with
  :meth:`MetricsRegistry.merge_snapshot` in chunk order, so counter
  folds are bit-identical between ``workers=1`` and ``workers=N``.
* **Thread safety.**  The daemon records from one thread per
  connection, so every mutation — counter increments, histogram
  observes, get-or-create dict inserts, snapshot/merge/reset — runs
  under one *module-level* lock (:data:`_REGISTRY_LOCK`).  Module
  level, not per-registry, keeps the fork story intact: constructing
  a ``MetricsRegistry`` never constructs a threading primitive in
  code the forked workers run, and the lock is re-armed in forked
  children via ``os.register_at_fork`` so a parent thread holding it
  at fork time cannot deadlock the child.
  Under ``REPRO_SANITIZE=1`` the lock is a
  :class:`~repro.util.sync.SanitizedLock`, which turns unguarded or
  misordered access into hard errors in the concurrency stress tests.
* **Deterministic merging.**  Histogram bucket bounds are *fixed*
  (log-spaced, :data:`BUCKET_BOUNDS`) rather than adaptive, so two
  snapshots merge by elementwise addition — no re-bucketing, no
  order dependence.
* **Near-zero overhead when disabled.**  :func:`set_metrics_enabled`
  flips one module-level flag; instrumented hot paths check
  ``registry.enabled`` once per *chunk* (not per pair) and skip all
  clock reads when off.  The throughput bench gates the enabled path
  at within 3% of the disabled one.

Values are recorded in seconds; the fixed buckets span 10µs to 50s,
which covers everything from a single chunk map to a whole-file run.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from bisect import bisect_left
from typing import Dict, Optional, Union

from ..util.sync import maybe_sanitize_lock, on_sanitize_toggle

#: Fixed histogram bucket upper bounds (seconds): 1/2.5/5 per decade
#: from 1e-5 up through 5e1, plus an implicit overflow bucket.  Fixed
#: bounds make merges deterministic elementwise additions.
BUCKET_BOUNDS = tuple(
    mantissa * 10.0 ** exponent
    for exponent in range(-5, 2)
    for mantissa in (1.0, 2.5, 5.0))

#: Process-wide enable flag.  Consulted through
#: :attr:`MetricsRegistry.enabled` so instrumented code holds no extra
#: global reference; forked workers inherit the parent's value.
_ENABLED = True


def set_metrics_enabled(enabled: bool) -> bool:
    """Turn metrics recording on/off process-wide; returns the
    previous value (restore it in benches/tests)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def metrics_enabled() -> bool:
    """Whether metrics recording is currently enabled."""
    return _ENABLED


#: The one lock guarding every metric mutation in this process.
#: Module-level by design (see the module docstring): per-registry
#: locks would put a threading-primitive construction on the forked
#: worker's path, and a lock captured mid-acquire at fork time would
#: deadlock the child — so the child re-arms a fresh one instead.
_REGISTRY_LOCK = maybe_sanitize_lock("metrics_registry")


def _rearm_registry_lock() -> None:
    global _REGISTRY_LOCK
    _REGISTRY_LOCK = maybe_sanitize_lock("metrics_registry")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_rearm_registry_lock)
on_sanitize_toggle(_rearm_registry_lock)


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with _REGISTRY_LOCK:
            self.value += amount


class Gauge:
    """A last-value-wins float (worker count, queue depth, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        with _REGISTRY_LOCK:
            self.value = float(value)


class Histogram:
    """A fixed-bucket latency histogram (counts per bucket + summary).

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot
    is the overflow bucket.  ``sum``/``count``/``min``/``max`` track
    the exact summary, so means are not bucket-quantized.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds=BUCKET_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        with _REGISTRY_LOCK:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts (the bucket
        upper bound the q-th observation falls in; the exact ``max``
        for the overflow bucket)."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket in enumerate(self.counts):
            seen += bucket
            if seen >= target and bucket:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Metrics are created on first use and reused afterwards; names are
    dotted paths (``engine.genpair.run_s``, ``executor.queue_wait_s``)
    so renderers can group by prefix.  The process-wide instance lives
    behind :func:`get_registry`; workers build private per-chunk
    instances and ship snapshots.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    @property
    def enabled(self) -> bool:
        """The process-wide enable flag (one check per chunk, not one
        per metric, in instrumented hot paths)."""
        return _ENABLED

    # -- metric accessors ----------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with _REGISTRY_LOCK:
                metric = self._counters.get(name)
                if metric is None:
                    metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with _REGISTRY_LOCK:
                metric = self._gauges.get(name)
                if metric is None:
                    metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with _REGISTRY_LOCK:
                metric = self._histograms.get(name)
                if metric is None:
                    metric = self._histograms[name] = Histogram()
        return metric

    # -- snapshot / merge / reset --------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """Every metric as plain JSON types (the wire/fold form),
        captured atomically with respect to concurrent recording."""
        with _REGISTRY_LOCK:
            histograms = {}
            for name, hist in self._histograms.items():
                histograms[name] = {
                    "bounds": list(hist.bounds),
                    "counts": list(hist.counts),
                    "count": hist.count,
                    "sum": hist.sum,
                    "min": hist.min if hist.count else 0.0,
                    "max": hist.max if hist.count else 0.0,
                }
            return {
                "counters": {name: c.value
                             for name, c in self._counters.items()},
                "gauges": {name: g.value
                           for name, g in self._gauges.items()},
                "histograms": histograms,
            }

    def merge_snapshot(self, snapshot: Dict[str, Dict]) -> None:
        """Fold a :meth:`snapshot` dictionary into the live metrics.

        Counters and histogram buckets add elementwise (fixed bounds
        make this exact); gauges are last-write-wins.  Folding worker
        snapshots in chunk order keeps counter totals bit-identical
        to a single-process run.

        The whole fold is one critical section.  The get-or-create and
        add steps are inlined rather than routed through
        :meth:`counter`/:meth:`Counter.inc` because those take the
        (non-reentrant) registry lock themselves.
        """
        with _REGISTRY_LOCK:
            for name, value in snapshot.get("counters", {}).items():
                metric = self._counters.get(name)
                if metric is None:
                    metric = self._counters[name] = Counter()
                metric.value += value
            for name, value in snapshot.get("gauges", {}).items():
                gauge = self._gauges.get(name)
                if gauge is None:
                    gauge = self._gauges[name] = Gauge()
                gauge.value = float(value)
            for name, data in snapshot.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = Histogram()
                if tuple(data["bounds"]) != hist.bounds:
                    raise ValueError(
                        f"histogram {name!r}: snapshot bucket bounds "
                        "do not match this registry's (fixed bounds "
                        "are what make merges deterministic)")
                counts = data["counts"]
                for index, bucket in enumerate(counts):
                    hist.counts[index] += bucket
                if data["count"]:
                    hist.count += data["count"]
                    hist.sum += data["sum"]
                    hist.min = min(hist.min, data["min"])
                    hist.max = max(hist.max, data["max"])

    def reset(self) -> None:
        """Drop every metric (tests and long-lived daemons)."""
        with _REGISTRY_LOCK:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry every instrumented layer records into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _REGISTRY


def host_metadata() -> Dict[str, Union[str, int, None]]:
    """The host facts that make recorded numbers comparable across
    machines (stamped into ``--metrics-json`` files and the daemon's
    ``stats`` reply)."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def write_metrics_json(path, registry: Optional[MetricsRegistry] = None
                       ) -> None:
    """Dump ``{"host": ..., "metrics": ...}`` as JSON to ``path`` (the
    ``repro map --metrics-json`` offline-analysis artifact)."""
    registry = registry if registry is not None else get_registry()
    payload = {"host": host_metadata(), "metrics": registry.snapshot()}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
