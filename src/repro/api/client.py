"""Thin client for the ``repro serve`` daemon (the ``repro client`` CLI).

One connection, newline-delimited JSON requests, blocking responses —
deliberately boring: all the intelligence lives server-side in the
warm :class:`~repro.api.Mapper`.  The address is a UNIX socket path or
a TCP endpoint (``HOST:PORT`` / ``tcp://HOST:PORT``), matching what
the daemon listens on.  Usable as a context manager::

    from repro.api import Client

    with Client("demo.rpix.sock") as client:      # or "host:7533"
        client.ping()
        report = client.map_file("demo_1.fq", "demo_2.fq", "demo.sam")
        print(report["pairs"], "pairs in", report["elapsed_s"], "s")

Two failure shapes of the concurrent daemon surface as typed errors:

* ``busy`` (queue full / client limit) raises :class:`ServerBusyError`
  — but only after the built-in retry policy is exhausted: the client
  retries with exponential backoff (``busy_retries`` times, starting
  at ``busy_backoff_s`` and honouring the daemon's ``retry_after_s``
  hint), reconnecting between attempts, so transient contention is
  absorbed without hand-rolled loops.  ``busy_retries=0`` disables.
* ``timeout`` (the per-request deadline expired; see the ``timeout=``
  kwarg on the mapping calls) raises :class:`RequestTimeoutError`
  carrying ``stage`` — whether the deadline hit while the request was
  still queued or already executing.  Never retried automatically:
  retrying with the same deadline would likely time out again.
"""

from __future__ import annotations

import json
import socket
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from ..serve.address import Address, parse_address
from ..serve.protocol import E_BUSY, E_TIMEOUT

PathLike = Union[str, Path]

#: Backoff growth is capped here; with the default 50 ms start and 4
#: retries the worst case waits 50+100+200+400 ms ≈ 0.75 s total.
MAX_BACKOFF_S = 2.0


class ClientError(RuntimeError):
    """The daemon was unreachable, or answered a request with an error."""


class ServerBusyError(ClientError):
    """The daemon refused the request under load (``busy``)."""

    def __init__(self, message: str,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class RequestTimeoutError(ClientError):
    """The request's deadline expired daemon-side (``timeout``)."""

    def __init__(self, message: str,
                 stage: Optional[str] = None) -> None:
        super().__init__(message)
        self.stage = stage


class Client:
    """A connection to a running ``repro serve`` daemon.

    ``socket_path`` names the endpoint — a UNIX socket path (the
    historical form) or a TCP address (``HOST:PORT``).  ``timeout``
    bounds every socket operation; the default ``None`` waits
    indefinitely, because a daemon-side ``map_file`` of a large input
    legitimately takes as long as the mapping does — pass a bound when
    probing liveness (``Client(path, timeout=5)``).  Per-request
    deadlines (the mapping calls' ``timeout=`` kwarg) are enforced
    daemon-side and answered with a structured ``timeout`` error
    instead of a dead socket.
    """

    def __init__(self, socket_path: PathLike,
                 timeout: Optional[float] = None, *,
                 busy_retries: int = 4,
                 busy_backoff_s: float = 0.05) -> None:
        self.socket_path = str(socket_path)
        self.address: Address = parse_address(socket_path)
        self._timeout = timeout
        if busy_retries < 0:
            raise ValueError("busy_retries must be >= 0")
        if busy_backoff_s <= 0:
            raise ValueError("busy_backoff_s must be > 0")
        self._busy_retries = busy_retries
        self._busy_backoff_s = busy_backoff_s
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._connect()

    def _connect(self) -> None:
        try:
            self._sock = self.address.connect(self._timeout)
        except OSError as exc:
            raise ClientError(
                f"cannot reach daemon at {self.address.display!r}: "
                f"{exc} (is `repro serve` running?)") from None
        self._reader = self._sock.makefile("rb")

    def _reconnect(self) -> None:
        """Fresh connection for a busy retry — the daemon closes
        connections refused at the client limit, and requests never
        pipeline, so reconnecting is always safe."""
        self.close()
        self._connect()

    def request(self, payload: Dict[str, Any],
                retries: Optional[int] = None) -> Dict[str, Any]:
        """Send one request object; return the daemon's response.

        ``busy`` answers are retried with exponential backoff
        (``retries`` overrides the client-wide ``busy_retries``).
        Raises :class:`ClientError` on transport failure or when the
        daemon answers ``ok: false`` — :class:`ServerBusyError` /
        :class:`RequestTimeoutError` for the structured codes.
        """
        budget = self._busy_retries if retries is None else retries
        delay = self._busy_backoff_s
        attempt = 0
        while True:
            try:
                return self._request_once(payload)
            except ServerBusyError as refusal:
                if attempt >= budget:
                    raise
                wait = refusal.retry_after_s
                time.sleep(max(wait, delay) if wait is not None
                           else delay)
                delay = min(delay * 2, MAX_BACKOFF_S)
                attempt += 1
                self._reconnect()

    def _request_once(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        try:
            try:
                self._sock.sendall(json.dumps(payload).encode() + b"\n")
            except (BrokenPipeError, ConnectionResetError):
                pass  # refused (``busy``) and closed first: read the line
            line = self._reader.readline()
        except OSError as exc:
            raise ClientError(f"daemon connection failed: {exc}") \
                from None
        if not line:
            raise ClientError("daemon closed the connection "
                              "mid-request")
        try:
            response = json.loads(line)
        except ValueError:
            raise ClientError("daemon sent an unparseable response "
                              "line") from None
        if not response.get("ok"):
            raise self._error_for(response)
        return response

    @staticmethod
    def _error_for(response: Dict[str, Any]) -> ClientError:
        message = response.get("error", "daemon reported failure")
        code = response.get("error_code")
        if code == E_BUSY:
            return ServerBusyError(
                message, retry_after_s=response.get("retry_after_s"))
        if code == E_TIMEOUT:
            return RequestTimeoutError(message,
                                       stage=response.get("stage"))
        return ClientError(message)

    # -- operations ----------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to shut down gracefully."""
        return self.request({"op": "shutdown"})

    @staticmethod
    def _workload(payload: Dict[str, Any], engine: Optional[str],
                  format: Optional[str], trace: bool = False,
                  timeout: Optional[float] = None) -> Dict[str, Any]:
        """Attach per-request engine/format/trace/deadline selection."""
        if engine is not None:
            payload["engine"] = engine
        if format is not None:
            payload["format"] = format
        if trace:
            payload["trace"] = True
        if timeout is not None:
            payload["timeout_s"] = timeout
        return payload

    def map_pairs(self, pairs: Iterable, header: bool = False,
                  engine: Optional[str] = None,
                  format: Optional[str] = None,
                  trace: bool = False,
                  timeout: Optional[float] = None) -> Dict[str, Any]:
        """Map inline pairs; reads may be ACGT strings or code arrays.

        ``engine``/``format`` select a registered engine and output
        format for this request (default: the daemon's configured
        ones).  ``timeout`` is the per-request deadline in seconds,
        enforced daemon-side (``0`` disables the daemon's default
        deadline for this request).  Returns the raw response:
        ``lines`` (record lines in the requested format, prefixed with
        the header lines when ``header=True``), per-request ``stats``,
        ``elapsed_s``, and ``coalesced`` (how many concurrent requests
        shared this request's engine run).  With ``trace=True`` the
        response also carries ``trace`` — the per-stage span breakdown
        of this request — without changing the wire lines.
        """
        wire: List[List[str]] = []
        for number, entry in enumerate(pairs):
            try:
                if isinstance(entry, dict):
                    # The name is optional, matching the daemon (which
                    # numbers unnamed pairs by request position).
                    item = [_as_text(entry["read1"]),
                            _as_text(entry["read2"])]
                    if entry.get("name") is not None:
                        item.append(str(entry["name"]))
                else:
                    entry = list(entry)
                    item = [_as_text(entry[0]), _as_text(entry[1])]
                    if len(entry) > 2:
                        item.append(str(entry[2]))
            except (IndexError, KeyError):
                raise ClientError(
                    f"pair {number}: expected (read1, read2[, name]) "
                    "or {'read1': ..., 'read2': ..., 'name'?: ...}") \
                    from None
            wire.append(item)
        return self.request(self._workload(
            {"op": "map", "pairs": wire, "header": header},
            engine, format, trace, timeout))

    def map_reads(self, reads: Iterable, header: bool = False,
                  engine: str = "longread",
                  format: Optional[str] = None,
                  trace: bool = False,
                  timeout: Optional[float] = None) -> Dict[str, Any]:
        """Map inline single reads through a single-read engine.

        ``reads`` entries are ACGT strings / code arrays, ``(read,
        name)`` tuples, or ``{'read': ..., 'name'?: ...}`` dicts.
        """
        wire: List[List[str]] = []
        for number, entry in enumerate(reads):
            try:
                if isinstance(entry, dict):
                    item = [_as_text(entry["read"])]
                    if entry.get("name") is not None:
                        item.append(str(entry["name"]))
                elif isinstance(entry, (tuple, list)):
                    item = [_as_text(entry[0])]
                    if len(entry) > 1:
                        item.append(str(entry[1]))
                else:
                    item = [_as_text(entry)]
            except (IndexError, KeyError):
                raise ClientError(
                    f"read {number}: expected read, (read[, name]), "
                    "or {'read': ..., 'name'?: ...}") from None
            wire.append(item)
        return self.request(self._workload(
            {"op": "map", "reads": wire, "header": header},
            engine, format, trace, timeout))

    def map_file(self, reads1: PathLike,
                 reads2: Optional[PathLike] = None,
                 out: Optional[PathLike] = None,
                 engine: Optional[str] = None,
                 format: Optional[str] = None,
                 trace: bool = False,
                 timeout: Optional[float] = None) -> Dict[str, Any]:
        """Map FASTQ paths daemon-side, writing ``out`` daemon-side.

        Paired engines take ``reads1`` and ``reads2``; single-read
        engines take ``reads1`` alone (leave ``reads2`` as ``None``).
        Paths are resolved by the daemon process, so relative paths
        are made absolute here first.
        """
        if out is None:
            raise ClientError("map_file needs an output path")
        payload = {
            "op": "map_file",
            "reads1": str(Path(reads1).absolute()),
            "out": str(Path(out).absolute())}
        if reads2 is not None:
            payload["reads2"] = str(Path(reads2).absolute())
        return self.request(self._workload(payload, engine, format,
                                           trace, timeout))

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._reader.close()
        finally:
            self._sock.close()
            self._sock = None
            self._reader = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _as_text(read) -> str:
    """ACGT text for a read given as text or as a code array."""
    if isinstance(read, str):
        return read
    from ..genome.sequence import decode

    return decode(read)
