"""Daemon economics: warm ``repro serve`` request vs cold ``repro map``.

The point of the daemon is to pay startup once.  A cold ``repro map
--index`` invocation pays, every time:

* interpreter + package import,
* index open (mmap + checksum verification),
* full-DP fallback construction,

before the first pair maps.  A warm daemon holds all of that ready, so
a client request pays only the mapping work plus a UNIX-socket round
trip.  This bench measures both paths end-to-end on the same inputs —
the cold path as real ``python -m repro.cli map`` subprocesses, the
warm path as ``Client.map_file`` requests against a live daemon:

* **correctness gate** — the daemon-served SAM for the full bench
  dataset is byte-identical to the offline ``repro map --index`` SAM;
* **latency gate** — on a request-sized workload (a
  :data:`REQUEST_PAIRS`-pair slice, the shape a serving client sends),
  the warm request must come in **under 25% of the cold end-to-end
  run**: startup excluded by keeping it resident, not by subtracting
  estimates.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import emit

from repro.genome import write_fasta, write_fastq
from repro.index import build_index, save_index
from repro.util import format_table

COLD_RUNS = 3
WARM_RUNS = 5
GATE_FRACTION = 0.25
#: Pairs per latency-probe request — a typical serving request, small
#: enough that per-run startup (what the daemon amortizes) dominates
#: the cold path.
REQUEST_PAIRS = 8

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "repro.cli", *args],
                          env=_cli_env(), check=True,
                          capture_output=True, text=True, **kwargs)


def _write_pair_files(path_prefix: Path, pairs):
    fq1 = path_prefix.with_name(path_prefix.name + "_1.fq")
    fq2 = path_prefix.with_name(path_prefix.name + "_2.fq")
    write_fastq(fq1, ((p.read1.name, p.read1.codes) for p in pairs))
    write_fastq(fq2, ((p.read2.name, p.read2.codes) for p in pairs))
    return fq1, fq2


def test_serve_latency(bench_reference, bench_datasets, tmp_path):
    import socket as socket_module

    import pytest

    if not hasattr(socket_module, "AF_UNIX"):  # pragma: no cover
        pytest.skip("the daemon needs UNIX-domain sockets")

    from repro.api import Client

    # -- the world: reference FASTA, index file, paired FASTQ ----------
    pairs = bench_datasets["dataset1"]
    request_pairs = pairs[:REQUEST_PAIRS]
    fasta = tmp_path / "bench_ref.fa"
    write_fasta(fasta, bench_reference)
    full1, full2 = _write_pair_files(tmp_path / "full", pairs)
    req1, req2 = _write_pair_files(tmp_path / "req", request_pairs)
    index_path = tmp_path / "bench.rpix"
    save_index(index_path, build_index(bench_reference))

    # -- cold path: full `repro map --index` subprocesses --------------
    cold_full_sam = tmp_path / "cold_full.sam"
    start = time.perf_counter()
    _run_cli(["map", "--index", str(index_path),
              "--reads1", str(full1), "--reads2", str(full2),
              "--out", str(cold_full_sam)])
    cold_full = time.perf_counter() - start
    cold_req_sam = tmp_path / "cold_req.sam"
    cold_best = float("inf")
    for _ in range(COLD_RUNS):
        start = time.perf_counter()
        _run_cli(["map", "--index", str(index_path),
                  "--reads1", str(req1), "--reads2", str(req2),
                  "--out", str(cold_req_sam)])
        cold_best = min(cold_best, time.perf_counter() - start)

    # -- warm path: requests against a live daemon ---------------------
    socket_path = tmp_path / "bench.sock"
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--index", str(index_path), "--socket", str(socket_path)],
        env=_cli_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        while not socket_path.exists():
            assert daemon.poll() is None, (
                "daemon died at startup:\n"
                + (daemon.stderr.read() or ""))
            assert time.monotonic() < deadline, "daemon never bound"
            time.sleep(0.05)

        warm_full_sam = tmp_path / "warm_full.sam"
        warm_req_sam = tmp_path / "warm_req.sam"
        warm_best = float("inf")
        with Client(socket_path) as client:
            start = time.perf_counter()
            client.map_file(full1, full2, warm_full_sam)
            warm_full = time.perf_counter() - start
            for _ in range(WARM_RUNS):
                start = time.perf_counter()
                client.map_file(req1, req2, warm_req_sam)
                warm_best = min(warm_best,
                                time.perf_counter() - start)
            report = client.stats()
            client.shutdown()
        assert daemon.wait(timeout=30) == 0
    finally:
        if daemon.poll() is None:  # pragma: no cover - cleanup path
            daemon.kill()
            daemon.wait()

    # -- correctness gate: byte-identical SAM on the full dataset ------
    assert warm_full_sam.read_bytes() == cold_full_sam.read_bytes(), \
        "daemon-served SAM differs from offline `repro map --index`"
    assert warm_req_sam.read_bytes() == cold_req_sam.read_bytes()
    assert report["server"]["pairs_mapped"] \
        == len(pairs) + WARM_RUNS * len(request_pairs)

    ratio = warm_best / cold_best
    rows = [
        (f"cold map, full dataset ({len(pairs)} pairs)",
         f"{cold_full * 1e3:,.1f} ms", "-"),
        (f"warm request, full dataset ({len(pairs)} pairs)",
         f"{warm_full * 1e3:,.1f} ms",
         f"{warm_full / cold_full:.3f}x"),
        (f"cold map, request-sized ({len(request_pairs)} pairs)",
         f"{cold_best * 1e3:,.1f} ms", "1.00x"),
        (f"warm request, request-sized ({len(request_pairs)} pairs)",
         f"{warm_best * 1e3:,.1f} ms", f"{ratio:.3f}x"),
    ]
    text = format_table(
        ("path", "elapsed (best)", "vs cold"),
        rows,
        title=f"Serve daemon latency (gate: warm request-sized "
              f"< {GATE_FRACTION:.0%} of cold)")
    emit("bench_serve", text)

    # -- the latency gate ----------------------------------------------
    assert ratio < GATE_FRACTION, (
        f"warm daemon request took {ratio:.1%} of the cold run "
        f"(gate {GATE_FRACTION:.0%}): {warm_best * 1e3:.1f} ms vs "
        f"{cold_best * 1e3:.1f} ms")
