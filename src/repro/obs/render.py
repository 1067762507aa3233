"""Text rendering for metrics snapshots: ``repro stats`` / ``repro top``.

Everything here consumes the plain-dict :meth:`MetricsRegistry.snapshot
<repro.obs.metrics.MetricsRegistry.snapshot>` form (what the daemon's
``stats`` reply carries over the wire), never live metric objects, so
the client renders exactly what the server reported.
"""

from __future__ import annotations

from typing import Dict, List

from ..util.tables import format_table

#: Quantiles the histogram tables report.
_QUANTILES = (0.5, 0.9, 0.99)


def format_seconds(value: float) -> str:
    """A compact human duration (``870us``, ``12.4ms``, ``1.73s``)."""
    if value <= 0:
        return "0"
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.2f}s"


def stat_units(stats: Dict[str, int]) -> int:
    """How many workload items an engine's stats dict accounts for
    (pairs for the paired engines, reads for single-read ones)."""
    for key in ("pairs_total", "pairs_seen", "reads_total"):
        if key in stats:
            return stats[key]
    return 0


def snapshot_quantile(hist: Dict, q: float) -> float:
    """Approximate quantile of a snapshot histogram dict: the bucket
    upper bound the q-th observation falls in (exact ``max`` for the
    overflow bucket)."""
    count = hist.get("count", 0)
    if not count:
        return 0.0
    bounds = hist["bounds"]
    target = q * count
    seen = 0
    for index, bucket in enumerate(hist["counts"]):
        seen += bucket
        if seen >= target and bucket:
            if index < len(bounds):
                return bounds[index]
            return hist["max"]
    return hist["max"]


def _histogram_rows(histograms: Dict[str, Dict],
                    prefix: str = "") -> List[tuple]:
    rows = []
    for name in sorted(histograms):
        if not name.startswith(prefix):
            continue
        hist = histograms[name]
        count = hist.get("count", 0)
        mean = hist["sum"] / count if count else 0.0
        rows.append((name, f"{count:,}", format_seconds(mean))
                    + tuple(format_seconds(snapshot_quantile(hist, q))
                            for q in _QUANTILES)
                    + (format_seconds(hist.get("max", 0.0)),))
    return rows


def render_metrics(snapshot: Dict[str, Dict]) -> List[str]:
    """A registry snapshot as report text: counters, gauges, then the
    latency-histogram summary table."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append(format_table(
            ("counter", "value"),
            [(name, f"{counters[name]:,}")
             for name in sorted(counters)],
            title="Counters"))
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append(format_table(
            ("gauge", "value"),
            [(name, f"{gauges[name]:g}") for name in sorted(gauges)],
            title="Gauges"))
    histograms = snapshot.get("histograms", {})
    rows = _histogram_rows(histograms)
    if rows:
        lines.append(format_table(
            ("histogram", "count", "mean", "p50", "p90", "p99", "max"),
            rows, title="Latency histograms"))
    if not lines:
        lines.append("(no metrics recorded)")
    return lines


def render_top(reply: Dict) -> List[str]:
    """One ``repro top`` frame from a daemon ``stats`` reply.

    Expects the expanded reply shape: ``server`` (request totals),
    ``engines`` (cumulative per-engine counters), ``metrics`` (the
    registry snapshot), and ``host``.
    """
    lines: List[str] = []
    server = reply.get("server", {})
    host = reply.get("host", {})
    lines.append(
        f"repro top — uptime {server.get('uptime_s', 0):.1f}s | "
        f"requests {server.get('requests', 0):,} | errors "
        f"{server.get('errors', 0)} | pairs "
        f"{server.get('pairs_mapped', 0):,}")
    if host:
        lines.append(
            f"host: python {host.get('python', '?')} on "
            f"{host.get('machine', '?')} "
            f"({host.get('cpu_count', '?')} CPUs)")
    if "active_connections" in server:
        lines.append(
            f"clients: {server.get('active_connections', 0)} active "
            f"of {server.get('connections', 0):,} total")
    scheduler = reply.get("scheduler")
    if scheduler:
        lines.append(
            f"scheduler: queue {scheduler.get('queue_depth', 0)}"
            f"/{scheduler.get('max_queue', 0)} | batches "
            f"{scheduler.get('batches', 0):,} | coalesced requests "
            f"{scheduler.get('coalesced_requests', 0):,} (max batch "
            f"{scheduler.get('max_batch_requests', 0)}) | busy "
            f"{scheduler.get('busy_rejected', 0)} | timeouts "
            f"{scheduler.get('timeouts', 0)}")
    by_op = server.get("by_op", {})
    if by_op:
        lines.append("ops: " + "  ".join(
            f"{op}={count:,}" for op, count in sorted(by_op.items())))
    snapshot = reply.get("metrics", {})
    engines = reply.get("engines", {})
    if engines:
        rows = []
        histograms = snapshot.get("histograms", {})
        for name in sorted(engines):
            stats = engines[name]
            units = stat_units(stats)
            run = histograms.get(f"engine.{name}.run_s", {})
            count = run.get("count", 0)
            mean = run["sum"] / count if count else 0.0
            rows.append((name, f"{count:,}", f"{units:,}",
                         format_seconds(mean),
                         format_seconds(
                             snapshot_quantile(run, 0.99)
                             if count else 0.0)))
        lines.append(format_table(
            ("engine", "runs", "items", "mean run", "p99 run"),
            rows, title="Engines (cumulative)"))
    # The batch-size histograms (serve.batch_requests /
    # serve.batch_items) count requests and items, not seconds; they
    # are summarized by the scheduler line above, not rendered as
    # latencies.
    request_rows = [
        row for row in _histogram_rows(snapshot.get("histograms", {}),
                                       prefix="serve.")
        if not row[0].startswith("serve.batch_")]
    if request_rows:
        lines.append(format_table(
            ("histogram", "count", "mean", "p50", "p90", "p99", "max"),
            request_rows, title="Request latency"))
    return lines
