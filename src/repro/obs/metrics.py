"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per process (:func:`get_registry`) holds
every metric the instrumented layers record — pipeline stage timings,
per-engine run counters, daemon request latencies.  Three properties
drive the design:

* **Thread safety.**  The daemon records from one thread per
  connection, so every mutation — counter increments, histogram
  observes, get-or-create dict inserts, snapshot/reset — runs under
  one *module-level* lock (:data:`_REGISTRY_LOCK`).
  Under ``REPRO_SANITIZE=1`` the lock is a
  :class:`~repro.util.sync.SanitizedLock`, which turns unguarded or
  misordered access into hard errors in the concurrency stress tests.
* **Fixed buckets.**  Histogram bucket bounds are *fixed*
  (log-spaced, :data:`BUCKET_BOUNDS`) rather than adaptive, so two
  snapshots of the same registry compare bucket by bucket.
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
from typing import Dict, Iterable, Optional, Tuple, Union

from ..util.sync import maybe_sanitize_lock, on_sanitize_toggle

#: Fixed histogram bucket upper bounds (seconds): 1/2.5/5 per decade
#: from 1e-5 up through 5e1, plus an implicit overflow bucket.
BUCKET_BOUNDS = tuple(
    mantissa * 10.0 ** exponent
    for exponent in range(-5, 2)
    for mantissa in (1.0, 2.5, 5.0))

#: Process-wide enable flag.  Consulted through
#: :attr:`MetricsRegistry.enabled` so instrumented code holds no extra
#: global reference.
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


#: The one lock guarding every metric mutation in this process,
#: re-armed when ``REPRO_SANITIZE`` is toggled so it becomes (or stops
#: being) a sanitized lock.
_REGISTRY_LOCK = maybe_sanitize_lock("metrics_registry")


def _rearm_registry_lock() -> None:
    global _REGISTRY_LOCK
    _REGISTRY_LOCK = maybe_sanitize_lock("metrics_registry")


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
    """A last-value-wins float (queue depth, ...)."""

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
            self._record(value)

    def _record(self, value: float) -> None:
        """:meth:`observe` with the registry lock already held."""
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
    dotted paths (``engine.genpair.run_s``, ``serve.request_s.map``)
    so renderers can group by prefix.  The process-wide instance lives
    behind :func:`get_registry`.
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

    def fold(self, counts: Iterable[Tuple[str, int]] = (),
             observations: Iterable[Tuple[str, float]] = ()) -> None:
        """Add each ``(name, amount)`` of ``counts`` to its counter and
        observe each ``(name, value)`` of ``observations`` in its
        histogram, creating metrics on first use, under one lock
        acquisition: a finished run or batch records everything it
        counted in one call instead of one locked call per metric."""
        counters, histograms = self._counters, self._histograms
        with _REGISTRY_LOCK:
            for name, amount in counts:
                metric = counters.get(name)
                if metric is None:
                    metric = counters[name] = Counter()
                metric.value += amount
            for name, value in observations:
                metric = histograms.get(name)
                if metric is None:
                    metric = histograms[name] = Histogram()
                metric._record(value)

    # -- snapshot / reset ----------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """Every metric as plain JSON types (the wire form),
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
