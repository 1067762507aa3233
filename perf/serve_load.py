"""The daemon workload's process and load generator.

``repro serve`` runs as a subprocess on a UNIX socket; the generator is
a **closed loop** — callers of a mapping daemon wait for their reply
before they send again — of :data:`CLIENTS` threads in this process,
one :class:`repro.api.Client` connection each.  Request sizes are drawn
by the seeded RNG; every reply is compared line by line with the
offline ``Mapper.lines()`` rendering of the same pairs.

The traffic is ISSUE 11's and is an **assumption**: no request log or
measured mix exists in the repo.  The one daemon shape gated before this
benchmark, ``benchmarks/bench_serve_concurrent.py``, is 8 clients x
2-pair requests, which lies on neither side of this mix; ROADMAP item 6
(the open-loop harness over a measured size mix) is to re-baseline it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api import Client, ClientError

from . import host
from .catalog import percentile

#: One client per core of the 2-core host the suite is sized for.
CLIENTS = 2
REQUEST_SIZES = (1, 8, 64)
REQUEST_WEIGHTS = (2 / 6, 3 / 6, 1 / 6)
#: The run is this many equal windows of traffic with a host-speed probe
#: between them (clients and connections stay; they wait at a barrier).
WINDOWS = 15
SCHEDULE_LENGTH = 1 << 16


def schedule(seed: int, client: int, pool: int):
    """``(starts, sizes)`` of one client's requests: a size drawn 2:3:1
    from 1/8/64 and a run of that many consecutive pool pairs.  Longer
    than any window needs; a client that outlasts it starts over."""
    rng = np.random.default_rng([seed, 10 + client])
    sizes = rng.choice(REQUEST_SIZES, p=REQUEST_WEIGHTS, size=SCHEDULE_LENGTH)
    starts = (rng.random(SCHEDULE_LENGTH) * (pool - sizes + 1)).astype(int)
    return starts, sizes


def short_path(path: Path) -> str:
    """A UNIX socket path must fit ~107 bytes: prefer the relative form
    when the checkout sits deep in the filesystem."""
    absolute = str(path)
    relative = os.path.relpath(absolute)
    return relative if len(relative) < len(absolute) else absolute


class Daemon:
    """One ``repro serve`` subprocess over an index."""

    def __init__(self, index: Path, socket_path: Path, log_path: Path,
                 env: Dict[str, str]) -> None:
        self.socket = short_path(socket_path)
        self._log_path = log_path
        self._log = open(log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--index",
             str(index), "--socket", self.socket],
            stdout=self._log, stderr=subprocess.STDOUT, env=env)

    def connect(self, timeout_s: float = 60.0) -> Client:
        """A client on the daemon's socket, as soon as it accepts."""
        deadline = perf_counter() + timeout_s
        while True:
            if self.process.poll() is not None:
                raise RuntimeError("repro serve exited early:\n"
                                   + self._log_path.read_text())
            try:
                return Client(self.socket, timeout=30.0, busy_retries=0)
            except ClientError:
                if perf_counter() > deadline:
                    raise
                sleep(0.005)

    def peak_rss_mb(self) -> Optional[float]:
        try:
            status = Path(f"/proc/{self.process.pid}/status").read_text()
        except OSError:
            return None
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return None

    def stop(self) -> None:
        """Graceful shutdown; kill if it does not go.  Always reaps."""
        try:
            if self.process.poll() is None:
                try:
                    with Client(self.socket, timeout=10.0) as client:
                        client.shutdown()
                except ClientError:
                    self.process.terminate()
                try:
                    self.process.wait(timeout=30.0)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self._log.close()


class _ClientRun:
    """What one client thread saw, one entry per successful request."""

    def __init__(self) -> None:
        self.window: List[int] = []
        self.latency_s: List[float] = []
        self.pairs: List[int] = []
        self.last_done = 0.0
        self.failed = 0
        self.gap_s = 0.0
        #: The last failed request, and the exception that ended the
        #: thread early (``None`` when it ran to the end).
        self.error: Optional[str] = None
        self.crashed: Optional[BaseException] = None


def _client_loop(run: _ClientRun, socket_path: str, pool: Sequence,
                 expected: Sequence[str], starts, sizes,
                 opening: threading.Barrier, closing: threading.Barrier,
                 clock: Dict[str, float]) -> None:
    client = None
    try:
        client = Client(socket_path, timeout=30.0, busy_retries=0)
        number = 0
        for window in range(WINDOWS):
            opening.wait(timeout=60.0)
            previous = clock["start"]
            while True:
                sent = perf_counter()
                if sent >= clock["deadline"]:
                    break
                start = int(starts[number % len(starts)])
                size = int(sizes[number % len(sizes)])
                number += 1
                run.gap_s += sent - previous
                try:
                    reply = client.map_pairs(pool[start:start + size])
                    lines = reply["lines"]
                except ClientError as exc:
                    # Refused (busy), timed out, or errored: a failure,
                    # and the connection may be gone with it.
                    run.failed += 1
                    run.error = f"{type(exc).__name__}: {exc}"
                    client.close()
                    client = Client(socket_path, timeout=30.0,
                                    busy_retries=0)
                    previous = perf_counter()
                    continue
                previous = perf_counter()
                if lines != expected[2 * start:2 * (start + size)]:
                    run.failed += 1
                    run.error = f"reply for pairs {start}+{size} differs " \
                                "from offline Mapper.lines()"
                    continue
                run.window.append(window)
                run.latency_s.append(previous - sent)
                run.pairs.append(size)
            run.last_done = previous
            closing.wait(timeout=60.0)
    except Exception as exc:  # surfaced by closed_loop after the join
        run.crashed = exc
        opening.abort()
        closing.abort()
    finally:
        if client is not None:
            client.close()


def closed_loop(socket_path: str, pool: Sequence, expected: Sequence[str],
                seed: int, seconds: float) -> Dict[str, object]:
    """Drive the daemon for ``seconds`` in :data:`WINDOWS` windows; the
    samples summarised over the whole run and per window, each window's
    times divided by the host-speed factor measured around it."""
    clock: Dict[str, float] = {}

    def open_window() -> None:
        clock["start"] = perf_counter()
        clock["deadline"] = clock["start"] + seconds / WINDOWS

    # A window opens when the clients and this thread, back from its
    # probe, have all arrived, before any of them is released to read it.
    opening = threading.Barrier(CLIENTS + 1, action=open_window)
    closing = threading.Barrier(CLIENTS + 1)
    runs = [_ClientRun() for _ in range(CLIENTS)]
    threads = []
    for number, run in enumerate(runs):
        starts, sizes = schedule(seed, number, len(pool))
        threads.append(threading.Thread(
            target=_client_loop, name=f"perf-client-{number}",
            args=(run, socket_path, pool, expected, starts, sizes, opening,
                  closing, clock)))
    for thread in threads:
        thread.start()
    elapsed, probes, overrun = [], [], 0.0
    try:
        for _ in range(WINDOWS):
            probes.append(host.probe())
            opening.wait(timeout=60.0)
            closing.wait(timeout=60.0 + seconds)
            ended = max([clock["deadline"]] + [run.last_done for run in runs])
            elapsed.append(ended - clock["start"])
            overrun = max(overrun, ended - clock["deadline"])
        probes.append(host.probe())
    except threading.BrokenBarrierError:
        pass                                # a client crashed: see below
    for thread in threads:
        thread.join()
    crashes = [run.crashed for run in runs if run.crashed is not None]
    if crashes:
        # The client that broke the barriers, not the ones it released.
        crashes.sort(key=lambda exc: isinstance(
            exc, threading.BrokenBarrierError))
        raise RuntimeError("load-generator client crashed") from crashes[0]

    failed = sum(run.failed for run in runs)
    errors = [run.error for run in runs if run.error]
    window = np.concatenate([run.window for run in runs]).astype(int)
    succeeded = len(window)
    if not succeeded:
        raise RuntimeError(f"no request succeeded: {errors}")
    raw_ms = np.concatenate([run.latency_s for run in runs]) * 1e3
    pairs = np.concatenate([run.pairs for run in runs])
    factors = np.array([host.factor(before, after)
                        for before, after in zip(probes, probes[1:])])
    scaled_ms = raw_ms / factors[window]
    scaled_elapsed = np.array(elapsed) / factors

    def figures(latency_ms, inside, seconds_taken) -> Dict[str, float]:
        ordered = np.sort(latency_ms[inside]).tolist()
        return {"pairs_per_s": float(pairs[inside].sum()) / seconds_taken,
                "req_per_s": len(ordered) / seconds_taken,
                "req_latency_ms_p50": percentile(ordered, 0.50),
                "req_latency_ms_p99": percentile(ordered, 0.99)}

    everything = np.ones(succeeded, dtype=bool)
    return {
        "elapsed_s": sum(elapsed), "attempted": succeeded + failed,
        "succeeded": succeeded, "failed": failed, "pairs": int(pairs.sum()),
        "mean_ms": float(raw_ms.mean()),
        "raw": figures(raw_ms, everything, sum(elapsed)),
        "scaled": figures(scaled_ms, everything, float(scaled_elapsed.sum())),
        "windows": [figures(scaled_ms, window == number,
                            float(scaled_elapsed[number]))
                    for number in range(WINDOWS)
                    if (window == number).any()],
        "host_factors": factors.tolist(),
        "gap_ms_mean": 1e3 * sum(run.gap_s for run in runs)
        / (succeeded + failed),
        "overrun_ms": 1e3 * overrun,
        "clients": CLIENTS, "connections": CLIENTS, "errors": errors}
