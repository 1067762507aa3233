"""The repo benchmark's one command.

Two ways in:

* ``python perf/run.py --workload W --seed N --seconds S --trace 0|1`` —
  one workload, one measurement: the form ``BENCHMARK.json`` declares.
  The last line of stdout is the result object; ``--trace 0`` reports
  the end-to-end metrics (tracing off), ``--trace 1`` the per-layer
  metrics from a separate traced pass.
* ``python perf/run.py [--seed N] [--out FILE] [--smoke] [--aa]`` — the
  whole suite: every workload, each measurement in a fresh child of
  this script, merged into one record ``perf/compare.py`` can diff.
  ``--aa`` runs two interleaved sets of suite runs of this same code and
  compares their medians: the benchmark's own noise check.

Inputs come from the seed (``perf/inputs.py``); the program under test
is reached only through ``repro.api.Mapper``, ``repro.api.Client`` and
the ``repro index build`` / ``repro serve`` CLI.  Exits non-zero when an
output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
if __package__ in (None, ""):  # run as a script: make perf/ and src/ importable
    sys.path[0:1] = [str(ROOT), str(SOURCE)]

if not (SOURCE / "repro").is_dir():
    sys.exit(f"perf/run.py: {SOURCE / 'repro'} is missing; the benchmark "
             "runs from a checkout of the repository")

import numpy as np  # noqa: E402  (after the path set-up above)

from perf import catalog, compare, host, inputs, serve_load  # noqa: E402
from perf.catalog import BATCH, plain, timing, with_units  # noqa: E402
from perf.spans import SHIMS  # noqa: E402

OUT_DIR = ROOT / "perf" / "out"
CHILD = ROOT / "perf" / "child.py"
#: Seven, so that the quartiles (the 2nd and 6th value) and the median
#: all survive one slow set-up.
SETUP_REPEATS = 7
MIN_PASSES = 5
#: ``--aa``: suite runs per set.  One pair of runs is not a noise check
#: on a host whose slow spells outlast a run.
AA_RUNS = 3
#: ``--smoke``: every code path in seconds, numbers meaningless.
SMOKE_SECONDS = 0.5
SMOKE_REPLAY = 20
#: Layers whose numbers come from the span recorder:
#: ``metric -> (layer, field or counter)``.
_SPAN_TIMES = {
    "genome.io_fasta.parse_s": "genome.io_fasta",
    "hashing.hash_s": "hashing",
    "core.query.probe_s": "core.query",
    "core.pairfilter.filter_s": "core.pairfilter",
    "core.light_align.align_s": "core.light_align",
    "align.banded.dp_s": "align.banded",
    "align.chaining.chain_s": "align.chaining",
    "mapper.mm2.self_s": "mapper.mm2",
    "core.pipeline.self_s": "core.pipeline",
    "api.engines.self_s": "api.engines",
    "genome.sam.render_s": "genome.sam",
}
_SPAN_COUNTS = {
    "genome.io_fasta.pairs": ("genome.io_fasta", "pairs"),
    "hashing.seeds": ("hashing", "seeds"),
    "core.pairfilter.calls": ("core.pairfilter", "calls"),
    "core.pairfilter.iterations": ("core.pairfilter", "iterations"),
    "core.light_align.attempts": ("core.light_align", "calls"),
    "align.banded.calls": ("align.banded", "calls"),
    "align.banded.cells": ("align.banded", "cells"),
    "align.chaining.calls": ("align.chaining", "calls"),
    "mapper.mm2.pairs": ("mapper.mm2", "calls"),
    "genome.sam.lines": ("genome.sam", "lines"),
    "genome.sam.bytes": ("genome.sam", "bytes"),
}
_SPAN_RATIOS = {
    "core.query.seed_hit_ratio": ("core.query", "seed_hits", "seed_accesses"),
    "core.pairfilter.pass_ratio": ("core.pairfilter", "passed", "calls"),
    "core.light_align.hit_ratio": ("core.light_align", "hits", "calls"),
}
#: Exact stage populations, from ``Mapper.last_stats`` (GenPair engine).
_PIPELINE_STATS = {
    "core.query.locations_fetched": ("locations_fetched",),
    "core.pipeline.light_mapped": ("light_mapped",),
    "core.pipeline.dp_candidate": ("light_fallback",),
    "core.pipeline.full_fallback": ("seedmap_fallback", "filter_fallback",
                                    "residual_fallback"),
    "core.pipeline.unmapped": ("unmapped",),
    "core.pipeline.dp_cells_candidate": ("dp_cells_candidate",),
    "core.pipeline.dp_cells_full": ("dp_cells_full",),
}


# -- processes ---------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + env.get("PYTHONPATH", "").split(os.pathsep))
    return env


def _run(command, **kwargs) -> subprocess.CompletedProcess:
    done = subprocess.run(command, env=_child_env(), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          **kwargs)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, command))} exited "
                           f"{done.returncode}:\n{done.stdout}")
    return done


def build_index(reference: Path, index: Path) -> float:
    """``repro index build`` as a user runs it; returns its wall time."""
    started = perf_counter()
    _run([sys.executable, "-m", "repro.cli", "index", "build",
          "--reference", str(reference), "--out", str(index)])
    return perf_counter() - started


def run_child(work: Path, mode: str, **spec) -> dict:
    spec.update(mode=mode, result=str(work / f"{mode}.result.json"))
    spec_path = work / f"{mode}.spec.json"
    spec_path.write_text(json.dumps(spec))
    _run([sys.executable, str(CHILD), str(spec_path)])
    return json.loads(Path(spec["result"]).read_text())


def pin_to_one_cpu():
    """Keep this process and everything it starts on one CPU; returns
    it (``None`` where the platform has no affinity call).

    This host has two states, each lasting a quarter of an hour or more
    (presumably where the hypervisor puts the VM's two vCPUs).  In one of
    them, work that keeps both CPUs busy — a daemon and its clients —
    loses 30% of its throughput and process start-up gains 20%, while
    single-process work does not move: measured, see the README.  Kept
    on one CPU nothing the benchmark runs depends on the second, and the
    daemon workload is no slower than on two (its engine holds one lock).
    The highest CPU it may use: interrupts tend to land on the first."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# -- set-up ------------------------------------------------------------------

def _child_paths(work: Path, dataset: inputs.Dataset, index: Path,
                 engine: str) -> dict:
    return {"index": str(index), "engine": engine,
            "warm_reads1": str(dataset.warm_reads1),
            "warm_reads2": str(dataset.warm_reads2),
            "warm_out": str(work / "warm.sam")}


def measure_setup(shape, work: Path, dataset: inputs.Dataset, index: Path,
                  repeats: int, warm_request) -> dict:
    """The full set-up sequence, ``repeats`` times from nothing: build
    the index from the FASTA, then — batch — a fresh process that opens
    it verified, warms the mapper and maps the warm pairs, or — daemon —
    ``repro serve`` from spawn to its first mapping reply."""
    samples = {"setup_s": [], "host": [], "build_s": [], "import_s": [],
               "open_s": [], "warmup_s": []}
    before = host.probe()
    for _ in range(repeats):
        index.unlink(missing_ok=True)
        started = perf_counter()
        samples["build_s"].append(build_index(dataset.reference, index))
        if shape.kind == BATCH:
            child = run_child(work, "setup", **_child_paths(
                work, dataset, index, shape.engine))
            samples["setup_s"].append(perf_counter() - started)
            for key in ("import_s", "open_s", "warmup_s"):
                samples[key].append(child[key])
        else:
            spawned = perf_counter()
            daemon = serve_load.Daemon(index, work / "d.sock",
                                       work / "serve.log", _child_env())
            try:
                with daemon.connect() as client:
                    client.map_pairs(warm_request)
                replied = perf_counter()
            finally:
                daemon.stop()
            samples["setup_s"].append(replied - started)
            samples["warmup_s"].append(replied - spawned)
        after = host.probe()
        samples["host"].append(host.factor(before, after))
        before = after
    return samples


# -- metric assembly ---------------------------------------------------------

def _setup_layers(samples: dict, index: Path) -> dict:
    metrics = {
        "index.build_s": timing(samples["build_s"]),
        "index.file_mb": plain(index.stat().st_size / 2 ** 20),
        "api.mapper.warmup_s": timing(samples["warmup_s"]),
    }
    for name, key in (("api.import_s", "import_s"),
                      ("index.open_s", "open_s")):
        # Inside the daemon these are not observable from outside.
        metrics[name] = timing(samples[key]) if samples[key] \
            else plain(0.0, "unobserved")
    return metrics


def _span_layers(trace: dict, table=SHIMS) -> dict:
    """Per-layer metrics from a traced child's recorder rows.  A layer
    none of whose callables exist any more is ``null``/``absent``; one
    this workload never enters reports zero work."""
    layers = trace["layers"]
    absent = {shim.layer for shim in table} - {
        shim.layer for shim in table
        if trace["shims"].get(shim.target) == "installed"}

    def row(layer):
        return layers.get(layer, {"calls": 0, "self_s": 0.0,
                                  "counters": {}})

    def field(layer, key):
        return row(layer)["calls"] if key == "calls" \
            else row(layer)["counters"].get(key, 0)

    metrics = {}
    for name, layer in _SPAN_TIMES.items():
        metrics[name] = (layer, row(layer)["self_s"])
    for name, (layer, key) in _SPAN_COUNTS.items():
        metrics[name] = (layer, field(layer, key))
    for name, (layer, top, bottom) in _SPAN_RATIOS.items():
        total = field(layer, bottom)
        metrics[name] = (layer, field(layer, top) / total if total else 0.0)
    dp_s = row("align.banded")["self_s"]
    metrics["align.banded.mcups"] = (
        "align.banded",
        field("align.banded", "cells") / dp_s / 1e6 if dp_s else 0.0)
    out = {}
    for name, (layer, value) in metrics.items():
        if layer in absent:
            out[name] = plain(None, "absent")
        elif row(layer)["calls"] == 0:
            out[name] = plain(value, "not_run")
        else:
            out[name] = plain(value)
    covered = sum(entry["self_s"] for entry in layers.values())
    out["trace.coverage"] = plain(covered / trace["wall_s"])
    out["trace.overhead_ratio"] = plain(
        trace["wall_s"] / statistics.median(trace["base_s"]))
    return out


def _pipeline_layers(stats: dict) -> dict:
    """Stage populations; zero/``not_run`` when another engine ran."""
    genpair = "light_mapped" in stats
    return {name: plain(sum(stats.get(key, 0) for key in keys),
                        None if genpair else "not_run")
            for name, keys in _PIPELINE_STATS.items()}


def _serve_layers_not_run() -> dict:
    return {metric.name: plain(0.0, "not_run")
            for metric in catalog.load().per_layer
            if metric.name.startswith(("serve.", "api.client."))}


def _histogram_mean_ms(before: dict, after: dict, name: str) -> float:
    def read(stats, field):
        return stats["metrics"]["histograms"].get(name, {}).get(field, 0)

    count = read(after, "count") - read(before, "count")
    return 1e3 * (read(after, "sum") - read(before, "sum")) / count \
        if count else 0.0


def _serve_layers(before: dict, after: dict, load: dict) -> dict:
    """The daemon's own account of the window, from its public ``stats``
    op read before and after it."""
    def delta(section, key):
        return after[section][key] - before[section][key]

    requests = delta("server", "requests")
    request_ms = _histogram_mean_ms(before, after, "serve.request_s.map")
    batches = delta("scheduler", "batches")
    counters = {key: after["metrics"]["counters"].get(key, 0)
                - before["metrics"]["counters"].get(key, 0)
                for key in ("serve.busy", "serve.timeouts")}
    return {
        "serve.queue_wait_ms_mean": plain(_histogram_mean_ms(
            before, after, "serve.queue_wait_s")),
        "serve.request_ms_mean": plain(request_ms),
        "serve.map_ms_mean": plain(_histogram_mean_ms(
            before, after, "serve.map_s.genpair.sam")),
        "serve.batch_requests_mean": plain(
            requests / batches if batches else 0.0),
        "serve.coalesced_ratio": plain(
            delta("scheduler", "coalesced_requests") / requests
            if requests else 0.0),
        "serve.busy": plain(counters["serve.busy"]),
        "serve.timeouts": plain(counters["serve.timeouts"]),
        "serve.wire_overhead_ms": plain(load["mean_ms"] - request_ms),
        "api.client.gap_ms_mean": plain(load["gap_ms_mean"]),
    }


# -- workloads ---------------------------------------------------------------

def _generate(shape, seed: int, work: Path, smoke: bool):
    count = shape.smoke_pairs if smoke else shape.pairs
    reference, pairs, warm = inputs.GENERATORS[shape.dataset](seed, count)
    traced = min(shape.trace_pairs, count) if shape.kind == BATCH else count
    dataset = inputs.write_dataset(work, reference, pairs, warm, shape.parts,
                                   traced, shape.warm_junk)
    return dataset, pairs


def run_batch(shape, work: Path, dataset, index: Path, seconds: float,
              trace: bool, smoke: bool) -> dict:
    outs = [work / "out.sam"] if trace else \
        [work / f"out{number}.sam" for number in range(len(dataset.parts))]
    child = run_child(
        work, "batch", trace=trace, seconds=seconds,
        min_passes=2 if smoke else MIN_PASSES,
        parts=[[str(reads1), str(reads2)] for reads1, reads2
               in dataset.parts], outs=[str(out) for out in outs],
        trace_reads1=str(dataset.trace_reads1),
        trace_reads2=str(dataset.trace_reads2),
        **_child_paths(work, dataset, index, shape.engine))
    truth = inputs.load_truth(dataset.truth)
    pairs = dataset.trace_pairs if trace else dataset.pairs
    if trace:
        truth = dict(list(truth.items())[:pairs])
    lines = []
    for out in outs:
        lines.extend(out.read_text().splitlines())
    score = inputs.score_sam_lines(lines, truth)
    passes = child.get("passes", [child])
    checks = {
        "records_are_two_per_pair": all(
            entry["records"] == 2 * pairs for entry in passes)
        and score["records"] == 2 * pairs,
        "output_identical_across_passes":
            len({entry["sha256"] for entry in passes}) == 1,
        "every_pair_has_two_records": score["failed_pairs"] == 0,
        "warm_pass_records": child["setup"]["warm_records"]
        == 2 * dataset.warm_pairs,
    }
    result = {
        "attempted": pairs * len(passes),
        "failed": score["failed_pairs"] * len(passes),
        "checks": checks, "output_sha256": passes[-1]["sha256"],
        "passes": len(passes), "pairs_per_pass": pairs,
        "stats": passes[-1]["stats"], "score": score,
    }
    if trace:
        metrics = _span_layers(child)
        metrics.update(_pipeline_layers(child["stats"]))
        metrics.update(_serve_layers_not_run())
        result["trace"] = child
    else:
        # A request is one whole FASTQ->SAM pass here, and a handful of
        # passes supports no percentile: both latency metrics read the
        # median pass.
        raw_s = statistics.median(entry["s"] for entry in passes)
        scaled = [entry["scaled_s"] for entry in passes]
        latency = timing([1e3 * s for s in scaled], raw=1e3 * raw_s)
        metrics = {
            "pairs_per_s": timing([pairs / s for s in scaled],
                                  raw=pairs / raw_s),
            "req_per_s": timing([1.0 / s for s in scaled], raw=1.0 / raw_s),
            "req_latency_ms_p50": latency,
            "req_latency_ms_p99": dict(latency),
            "peak_rss_mb": plain(child["peak_rss_mb"]),
        }
    result["metrics"] = metrics
    return result


def run_serve(shape, work: Path, dataset, pairs, index: Path, seed: int,
              seconds: float, trace: bool, smoke: bool) -> dict:
    from repro.api import Mapper

    with Mapper.from_index(index) as mapper:
        expected = list(mapper.lines(
            mapper.map([(pair.read1, pair.read2, pair.name)
                        for pair in pairs]), format="sam", header=False))
    score = inputs.score_sam_lines(expected, inputs.load_truth(dataset.truth))
    pool = inputs.wire_pairs(pairs)
    daemon = serve_load.Daemon(index, work / "d.sock", work / "serve.log",
                               _child_env())
    try:
        with daemon.connect() as control:
            control.map_pairs(pool[:inputs.WARM_PAIRS])
            before = control.stats()
            load = serve_load.closed_loop(daemon.socket, pool, expected,
                                          seed, seconds)
            after = control.stats()
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    checks = {
        "offline_lines_are_two_per_pair": len(expected) == 2 * len(pairs)
        and score["failed_pairs"] == 0,
        "every_reply_matches_offline_lines": load["failed"] == 0
        and load["succeeded"] > 0,
        "daemon_reported_no_errors":
            after["server"]["errors"] == before["server"]["errors"],
    }
    result = {"attempted": load["attempted"], "failed": load["failed"],
              "checks": checks, "score": score,
              "load": {key: load[key] for key in (
                  "elapsed_s", "attempted", "succeeded", "failed", "pairs",
                  "host_factors", "gap_ms_mean", "overrun_ms", "clients",
                  "connections", "errors")}}
    if trace:
        # The first requests client 0 sent in the window above.
        replayed = SMOKE_REPLAY if smoke else shape.trace_pairs
        starts, sizes = serve_load.schedule(seed, 0, len(pool))
        (work / "pool.json").write_text(json.dumps(pool))
        child = run_child(
            work, "replay", pool=str(work / "pool.json"),
            requests=[[int(start), int(size)] for start, size
                      in zip(starts[:replayed], sizes[:replayed])],
            **_child_paths(work, dataset, index, shape.engine))
        metrics = _span_layers(child)
        metrics.update(_pipeline_layers(child["stats"]))
        metrics.update(_serve_layers(before, after, load))
        result["trace"] = child
    else:
        # Each figure is taken over every request of the run; the same
        # figure over each window of it gives the quartiles.
        metrics = {name: timing([entry[name] for entry in load["windows"]],
                                value=value, raw=load["raw"][name])
                   for name, value in load["scaled"].items()}
        for name in ("req_latency_ms_p50", "req_latency_ms_p99"):
            metrics[name]["samples"] = load["succeeded"]
        metrics["peak_rss_mb"] = plain(rss)
    result["metrics"] = metrics
    return result


def run_workload(name: str, seed: int, seconds: float, traces=(0,),
                 smoke: bool = False) -> list:
    """Inputs and set-up of one workload, then one measurement (with
    its checks) per entry of ``traces``: 0 timed, 1 traced."""
    shape = catalog.load().workload(name).shape
    work = OUT_DIR / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        dataset, pairs = _generate(shape, seed, work, smoke)
        index = work / "ref.rpix"
        setup = measure_setup(
            shape, work, dataset, index, 1 if smoke else SETUP_REPEATS,
            inputs.wire_pairs(pairs[:inputs.WARM_PAIRS]))
        results = []
        for trace in traces:
            if shape.kind == BATCH:
                result = run_batch(shape, work, dataset, index, seconds,
                                   bool(trace), smoke)
            else:
                result = run_serve(shape, work, dataset, pairs, index,
                                   seed, seconds, bool(trace), smoke)
            _finish(result, name, seed, trace, setup, index)
            results.append(result)
        return results
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _finish(result: dict, name: str, seed: int, trace: int, setup: dict,
            index: Path) -> None:
    """Add the metrics every workload shares, keep the declared ones in
    declared order with their declared units, and settle ``correct``."""
    metrics = result["metrics"]
    declared = catalog.load()
    if trace:
        metrics.update(_setup_layers(setup, index))
        metrics["host.calib_s"] = plain(host.calibrate())
        score, total = result["score"], result["attempted"]
        metrics["output.wrong_pct"] = plain(score["wrong_pct"])
        metrics["output.failed_ratio"] = plain(
            result["failed"] / total if total else 1.0)
        spans = result["trace"].pop("spans")
        result["trace_file"] = _write_trace(name, seed, result["trace"],
                                            spans)
        result["metrics"] = with_units(metrics, declared.per_layer)
    else:
        metrics["setup_s"] = timing(
            [s / factor for s, factor in zip(setup["setup_s"], setup["host"])],
            raw=statistics.median(setup["setup_s"]))
        metrics["mapped_pct"] = plain(result["score"]["mapped_pct"])
        metrics["correct_pct"] = plain(result["score"]["correct_pct"])
        result["metrics"] = with_units(metrics, declared.end_to_end)
    result["correct"] = all(result["checks"].values()) \
        and result["failed"] == 0
    result.update(workload=name, seed=seed, trace=trace)


def _write_trace(name: str, seed: int, trace: dict, spans: list) -> str:
    """Per-layer aggregates plus the raw spans of the first chunk."""
    path = OUT_DIR / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed, "wall_s": trace["wall_s"],
        "untraced_s": trace["base_s"], "shims": trace["shims"],
        "layers": trace["layers"], "first_chunk_spans": spans}, indent=1))
    return str(path.relative_to(ROOT))


# -- reporting ---------------------------------------------------------------

def print_metrics(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        text = "null" if value is None else f"{value:.6g}"
        extra = ""
        if "n" in entry:
            extra = f"  n={entry['n']} q1={entry['q1']:.6g} " \
                    f"q3={entry['q3']:.6g} spread={entry['spread']:.3f}"
        if "raw" in entry:
            extra += f" raw={entry['raw']:.6g}"
        if "samples" in entry:
            extra += f" samples={entry['samples']}"
        if "status" in entry:
            extra += f"  [{entry['status']}]"
        print(f"  {name:34s} {text:>12s} {entry['unit']}{extra}")
    for check, passed in result["checks"].items():
        print(f"  check {check}: {'ok' if passed else 'FAILED'}")


def driver_line(result: dict) -> str:
    """The object the driver reads.  Values are numbers: an ``absent``
    layer, ``null`` in the record, reads -1 here."""
    metrics = {name: {"value": -1 if entry["value"] is None
                      else entry["value"], "unit": entry["unit"]}
               for name, entry in result["metrics"].items()}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def host_facts(pinned_cpu) -> dict:
    return {"python": platform.python_version(),
            "platform": platform.platform(), "machine": platform.machine(),
            "cpu_count": os.cpu_count(), "pinned_cpu": pinned_cpu,
            "numpy": np.__version__}


def run_suite(seed: int, seconds: float, smoke: bool, out: Path,
              pinned_cpu) -> dict:
    """Every workload in a fresh child of this script, which sets up
    once and takes the timed and then the traced measurement."""
    record = {"schema": 1, "seed": seed, "seconds": seconds, "smoke": smoke,
              "host": host_facts(pinned_cpu), "workloads": {}}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for workload in catalog.load().workloads:
        part = OUT_DIR / f"part-{workload.name}-{os.getpid()}.json"
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload.name, "--seed", str(seed),
                   "--seconds", str(seconds), "--record", str(part)]
        if smoke:
            command.append("--smoke")
        done = subprocess.run(command, env=_child_env())
        timed, traced = json.loads(part.read_text())
        part.unlink()
        record["workloads"][workload.name] = {
            "end_to_end": timed.pop("metrics"), "timed": timed,
            "per_layer": traced.pop("metrics"), "traced": traced}
        if done.returncode != 0:
            record["failed_checks"] = True
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"wrote {out}")
    return record


def main(argv=None) -> int:
    declared = catalog.load()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w.name for w in declared.workloads],
                        help="run one workload (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=1,
                        help="inputs are a function of the seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per run (default: run_seconds of "
                             f"BENCHMARK.json, {declared.run_seconds})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; "
                             "1: per-layer metrics from a traced pass")
    parser.add_argument("--out", type=Path, default=None,
                        help="suite record (default perf/out/result-SEED.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one set-up: exercises every path")
    parser.add_argument("--aa", action="store_true",
                        help=f"noise self-check: two interleaved sets of "
                             f"{AA_RUNS} suite runs of this same code, "
                             "compared by their medians")
    parser.add_argument("--record", type=Path, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None \
        else (SMOKE_SECONDS if args.smoke else declared.run_seconds)
    pinned_cpu = pin_to_one_cpu()

    if args.workload is not None:
        # --record marks a suite child: both measurements, one set-up.
        traces = (0, 1) if args.record is not None else (args.trace,)
        results = run_workload(args.workload, args.seed, seconds, traces,
                               args.smoke)
        if args.record is not None:
            args.record.write_text(json.dumps(results))
        for result in results:
            print_metrics(result)
        print(driver_line(results[-1]))
        return 0 if all(result["correct"] for result in results) else 1

    out = args.out if args.out is not None \
        else OUT_DIR / f"result-{args.seed}.json"
    if not args.aa:
        record = run_suite(args.seed, seconds, args.smoke, out, pinned_cpu)
        return 1 if record.get("failed_checks") else 0
    sets = {"a": [], "b": []}
    failed = False
    for number in range(AA_RUNS):
        for side, paths in sets.items():
            paths.append(out.with_name(f"{out.stem}-{side}{number}{out.suffix}"))
            failed |= bool(run_suite(args.seed, seconds, args.smoke, paths[-1],
                                     pinned_cpu).get("failed_checks"))
    verdict = compare.main([",".join(map(str, paths))
                            for paths in sets.values()])
    return 1 if failed else verdict


if __name__ == "__main__":
    sys.exit(main())
