"""Concurrent serving throughput: 8 clients vs serialized dispatch.

The old daemon accepted one connection at a time, so N clients paid N
engine runs strictly back to back — request K+1 could not even be
*read* before request K finished.  The serving tier overlaps socket
I/O across connection threads and coalesces compatible small inline
``map`` requests into single vectorized engine runs, so eight
concurrent 4-pair requests cost roughly one 32-pair ``map_batch``
instead of eight separate runs.

This bench measures both dispatch shapes against the *same* live
daemon on the same request mix:

* **serialized** — one client issues every request sequentially,
  reproducing the old accept-loop's effective schedule;
* **concurrent** — :data:`CLIENTS` threads issue the same requests in
  parallel.

Two gates:

* **correctness** — every concurrent reply's record lines are
  byte-identical to the single-threaded reference reply (coalescing
  must never change wire bytes);
* **throughput** — aggregate concurrent throughput (requests/s) is at
  least :data:`GATE_SPEEDUP` x the serialized throughput.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from conftest import emit

from repro.genome import decode, write_fasta
from repro.index import build_index, save_index
from repro.util import format_table

CLIENTS = 8
REQUESTS_PER_CLIENT = 8
#: Pairs per request — small on purpose: the serving tier's win is
#: amortizing per-run dispatch overhead across coalesced requests.
PAIRS_PER_REQUEST = 2
GATE_SPEEDUP = 2.0

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _wire_pairs(pairs):
    return [(decode(p.read1.codes), decode(p.read2.codes), p.name)
            for p in pairs]


def test_serve_concurrent_throughput(bench_reference, bench_datasets,
                                     tmp_path):
    import socket as socket_module

    import pytest

    if not hasattr(socket_module, "AF_UNIX"):  # pragma: no cover
        pytest.skip("the daemon needs UNIX-domain sockets")

    from repro.api import Client

    # -- the world: indexed reference, one shared daemon ---------------
    fasta = tmp_path / "bench_ref.fa"
    write_fasta(fasta, bench_reference)
    index_path = tmp_path / "bench.rpix"
    save_index(index_path, build_index(bench_reference))
    payload = _wire_pairs(
        bench_datasets["dataset1"][:PAIRS_PER_REQUEST])

    socket_path = tmp_path / "bench.sock"
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--index", str(index_path), "--socket", str(socket_path),
         "--coalesce-wait-ms", "5"],
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

        total = CLIENTS * REQUESTS_PER_CLIENT
        with Client(socket_path) as client:
            reference = client.map_pairs(payload)["lines"]
        assert reference

        # -- serialized dispatch: the old accept-loop schedule ---------
        with Client(socket_path) as client:
            started = time.perf_counter()
            for _ in range(total):
                reply = client.map_pairs(payload)
                assert reply["lines"] == reference
            serial_s = time.perf_counter() - started

        # -- concurrent dispatch: 8 clients in parallel ----------------
        failures, mismatches = [], []

        def hammer(index):
            try:
                with Client(socket_path) as client:
                    for _ in range(REQUESTS_PER_CLIENT):
                        reply = client.map_pairs(payload)
                        if reply["lines"] != reference:
                            mismatches.append(index)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append((index, exc))

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        concurrent_s = time.perf_counter() - started
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert mismatches == [], (
            "coalesced replies diverged from the reference")

        with Client(socket_path) as client:
            report = client.stats()
            client.shutdown()
        assert daemon.wait(timeout=30) == 0
    finally:
        if daemon.poll() is None:  # pragma: no cover - cleanup path
            daemon.kill()
            daemon.wait()

    # -- exact totals under the concurrent hammer ----------------------
    stats = report["server"]
    assert stats["errors"] == 0
    assert stats["by_op"]["map"] == 2 * total + 1
    assert stats["pairs_mapped"] == (2 * total + 1) * len(payload)
    scheduler = report["scheduler"]

    serial_tp = total / serial_s
    concurrent_tp = total / concurrent_s
    speedup = concurrent_tp / serial_tp
    rows = [
        (f"serialized, 1 client x {total} requests",
         f"{serial_s * 1e3:,.1f} ms", f"{serial_tp:,.1f} req/s",
         "1.00x"),
        (f"concurrent, {CLIENTS} clients x {REQUESTS_PER_CLIENT}",
         f"{concurrent_s * 1e3:,.1f} ms",
         f"{concurrent_tp:,.1f} req/s", f"{speedup:.2f}x"),
    ]
    text = format_table(
        ("dispatch", "wall", "throughput", "speedup"), rows,
        title=f"Concurrent serving throughput "
              f"({PAIRS_PER_REQUEST} pairs/request; gate: "
              f">= {GATE_SPEEDUP:.0f}x; "
              f"{scheduler['coalesced_requests']} requests coalesced "
              f"into {scheduler['batches']} engine runs, max batch "
              f"{scheduler['max_batch_requests']})")
    emit("bench_serve_concurrent", text)

    # -- the throughput gate -------------------------------------------
    assert speedup >= GATE_SPEEDUP, (
        f"{CLIENTS} concurrent clients reached only {speedup:.2f}x "
        f"the serialized throughput (gate {GATE_SPEEDUP:.0f}x): "
        f"{concurrent_tp:.1f} vs {serial_tp:.1f} req/s")
