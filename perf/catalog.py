"""What the benchmark runs and reports: workloads, metrics, statistics.

``BENCHMARK.json`` at the repo root is the one declaration of the
workload names and whys and of every metric's name, unit, direction and
bound; :func:`load` reads it.  This module adds only what the driver's
schema cannot hold: how each workload's inputs are built
(:data:`SHAPES`) and which end-to-end metric each layer metric should
move (:data:`MOVES`).
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

DECLARATION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

BATCH = "batch"
SERVE = "serve"


@dataclass(frozen=True)
class Shape:
    """How one workload is built.  ``pairs`` is the pass size (the
    request pool for the daemon workload), ``parts`` the number of
    paired FASTQ files a pass reads them from, ``trace_pairs`` how many
    of them the traced pass covers (how many requests it replays, for
    the daemon), ``smoke_pairs`` the size under ``--smoke``."""

    kind: str
    engine: str
    dataset: str
    pairs: int
    parts: int
    trace_pairs: int
    smoke_pairs: int
    #: Add one unmappable pair to the warm pass so set-up pays the lazy
    #: fallback minimizer-index build instead of the first timed pass.
    warm_junk: bool = False


#: The DP workloads' passes are sized so that five of them fit the run:
#: 300 of the fixed GIAB-like pairs take ~2.4 s on the genpair engine,
#: 100 take ~2.8 s on mm2.  A pass is split into files of 0.2-0.6 s each
#: so that the host-speed probes between them (``perf/host.py``) follow
#: a host whose speed changes within a pass.
SHAPES = {
    "clean_batch": Shape(BATCH, "genpair", "clean", 20_000, 8, 5_000, 400),
    "giab_batch": Shape(BATCH, "genpair", "giab", 300, 5, 300, 24,
                        warm_junk=True),
    "mm2_batch": Shape(BATCH, "mm2", "giab", 100, 5, 100, 8),
    "serve_small": Shape(SERVE, "genpair", "clean", 2_000, 0, 300, 200),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                     # "lower" | "higher"
    bound: Optional[float] = None   # end-to-end only: share of the base
    moves: str = ""                 # per-layer only: what it should move


_CLEAN = "pairs_per_s @ clean_batch"
_SERVE_LAT = "req_latency_ms_p50 @ serve_small"
_DP = "pairs_per_s @ giab_batch, mm2_batch; no change @ clean_batch, " \
      "serve_small (cells = 0)"
_MM2 = "pairs_per_s @ mm2_batch, and @ giab_batch through its fallback pairs"
_SETUP = "setup_s @ every workload"
_SERVE = "req_latency_ms_p50, req_latency_ms_p99, req_per_s @ serve_small only"
_EXACT = "nothing: must repeat exactly (same work, less time)"

#: Per layer metric, the end-to-end metric it should move and where.
MOVES = {
    "genome.io_fasta.parse_s": _CLEAN,
    "genome.io_fasta.pairs": _EXACT,
    "hashing.hash_s": f"{_CLEAN}; {_SERVE_LAT}",
    "hashing.seeds": _EXACT,
    "core.query.probe_s": f"{_CLEAN}; {_SERVE_LAT}",
    "core.query.locations_fetched": _EXACT,
    "core.query.seed_hit_ratio": _EXACT,
    "core.pairfilter.filter_s": _CLEAN,
    "core.pairfilter.calls": _EXACT,
    "core.pairfilter.iterations": _EXACT,
    "core.pairfilter.pass_ratio": _EXACT,
    "core.light_align.align_s": f"{_CLEAN}; {_SERVE_LAT}; 7-16% of giab_batch",
    "core.light_align.attempts": _EXACT,
    "core.light_align.hit_ratio": _EXACT,
    "align.banded.dp_s": _DP,
    "align.banded.calls": _DP,
    "align.banded.cells": _DP,
    "align.banded.mcups": _DP,
    "align.chaining.chain_s": _MM2,
    "align.chaining.calls": _MM2,
    "mapper.mm2.self_s": _MM2,
    "mapper.mm2.pairs": _MM2,
    "core.pipeline.self_s":
        f"{_CLEAN} (window, orientation and record glue)",
    "core.pipeline.light_mapped": _EXACT,
    "core.pipeline.dp_candidate": _EXACT,
    "core.pipeline.full_fallback": _EXACT,
    "core.pipeline.unmapped": _EXACT,
    "core.pipeline.dp_cells_candidate": _EXACT,
    "core.pipeline.dp_cells_full": _EXACT,
    "api.engines.self_s": f"{_CLEAN} (result objects per pair)",
    "genome.sam.render_s": f"{_CLEAN}; {_SERVE_LAT}",
    "genome.sam.lines": _EXACT,
    "genome.sam.bytes": _EXACT,
    "index.build_s": _SETUP,
    "index.open_s": _SETUP,
    "index.file_mb": _SETUP,
    "api.import_s": _SETUP,
    "api.mapper.warmup_s": _SETUP,
    "serve.queue_wait_ms_mean": _SERVE,
    "serve.request_ms_mean": _SERVE,
    "serve.map_ms_mean": _SERVE,
    "serve.batch_requests_mean": _SERVE,
    "serve.coalesced_ratio": _SERVE,
    "serve.busy": _SERVE,
    "serve.timeouts": _SERVE,
    "serve.wire_overhead_ms": _SERVE,
    "api.client.gap_ms_mean":
        "nothing in the product: the load generator's own time between "
        "a reply and the next send",
    "output.wrong_pct": "nothing: reads mapped away from their true locus",
    "output.failed_ratio": "nothing: must stay 0",
    "trace.coverage": "nothing: layer self-times over traced wall",
    "trace.overhead_ratio": "nothing: traced wall over untraced median",
    "host.calib_s": "nothing: fixed microloop, normalizes across hosts",
}


@dataclass(frozen=True)
class Catalog:
    run_seconds: int
    workloads: Tuple[Workload, ...]
    end_to_end: Tuple[Metric, ...]
    per_layer: Tuple[Metric, ...]

    def workload(self, name: str) -> Workload:
        for workload in self.workloads:
            if workload.name == name:
                return workload
        raise KeyError(name)


@functools.lru_cache(maxsize=1)
def load() -> Catalog:
    """The declaration, joined with :data:`SHAPES` and :data:`MOVES`.  A
    declared workload this module cannot build is an error."""
    declared = json.loads(DECLARATION.read_text())
    unknown = [entry["name"] for entry in declared["workloads"]
               if entry["name"] not in SHAPES]
    if unknown:
        raise ValueError(f"{DECLARATION.name} declares workloads perf/ "
                         f"cannot build: {unknown}")
    return Catalog(
        declared["run_seconds"],
        tuple(Workload(entry["name"], entry["why"], SHAPES[entry["name"]])
              for entry in declared["workloads"]),
        tuple(Metric(entry["name"], entry["unit"], entry["better"],
                     entry["bound"]) for entry in declared["end_to_end"]),
        tuple(Metric(entry["name"], entry["unit"], entry["better"],
                     moves=MOVES.get(entry["name"], ""))
              for entry in declared["per_layer"]))


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` the way the driver computes them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timing(values: Sequence[float], value: Optional[float] = None,
           raw: Optional[float] = None) -> Dict[str, object]:
    """A timing metric: the median of ``values`` with their quartiles,
    spread and count ``n``.  ``value`` replaces the median where the
    figure is taken over the whole run and ``values`` are windows of it,
    kept for the spread.  ``raw`` is the same figure before the division
    by the host-speed factor (``perf/host.py``)."""
    q1, median, q3 = quartiles(values)
    entry = {"value": median if value is None else value,
             "n": len(values), "q1": q1, "q3": q3,
             "spread": (q3 - q1) / median if median else 0.0}
    if raw is not None:
        entry["raw"] = raw
    return entry


def plain(value: Optional[float],
          status: Optional[str] = None) -> Dict[str, object]:
    """A metric without a distribution (a count, a ratio, a size).
    ``status`` is ``"absent"`` for a layer whose callable is gone,
    ``"not_run"`` for one this workload never enters and
    ``"unobserved"`` for one the benchmark cannot see from outside."""
    entry: Dict[str, object] = {"value": value}
    if status is not None:
        entry["status"] = status
    return entry


def with_units(metrics: Dict[str, dict],
               declared: Sequence[Metric]) -> Dict[str, dict]:
    """The declared metrics, in declared order, each with its unit."""
    return {metric.name: dict(metrics[metric.name], unit=metric.unit)
            for metric in declared}


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]
