"""The concurrent ``repro serve`` daemon: listeners, ops, scheduler.

``repro map`` pays index open and engine construction (the fallback's
included) on every invocation.  The daemon pays them **once**: a
:class:`MapServer` holds a live :class:`~repro.api.Mapper` (memory-
mapped index + warm engines) and answers mapping requests
over a UNIX-domain socket — and, with ``--tcp``, a TCP endpoint — for
as long as it runs.

The tier has three layers (one module each):

* **listeners** (:mod:`repro.serve.listeners`) — one accept thread per
  endpoint; each accepted connection gets its own thread, bounded by
  ``max_clients`` (excess connections are answered ``busy`` and
  closed).
* **ops** (this module) — per-connection NDJSON framing and request
  validation.  Control ops (``ping``/``stats``/``shutdown``) answer
  immediately from the connection thread; mapping ops are decoded and
  validated here (a typo'd engine or format fails in microseconds,
  before touching the queue) and then submitted to the scheduler.
* **scheduler** (:mod:`repro.serve.scheduler`) — one thread draining a
  bounded queue onto the one warm mapper, coalescing compatible small
  ``map`` requests into single engine runs and demultiplexing the
  replies; a full queue is answered with a structured ``busy`` error,
  an expired per-request deadline with ``timeout``.

Wire protocol — newline-delimited JSON, one object per line, one
response line per request line; a connection may carry any number of
requests.  Operations:

``ping``
    Liveness probe.  Response carries ``pid``, ``uptime_s``, the index
    path (``null`` for an index built from ``--reference``), the config
    snapshot (the eight :class:`~repro.api.MappingConfig` values), the
    registered engines/formats, and the listening endpoints
    (``listeners``).
``map``
    Map workload items shipped inline.  Paired engines:
    ``{"op": "map", "pairs": [[read1, read2, name?], ...]}``;
    the single-read ``longread`` engine: ``{"op": "map", "engine":
    "longread", "reads": [[read, name?], ...]}`` — reads as ACGT
    strings either way.  Optional ``"engine"`` and ``"format"`` keys
    select any registered engine/output format **per request** against
    the one warm facade; optional ``"timeout_s"`` caps how long the
    request may wait+run (``0`` disables the server default).
    Responds with ``{"lines": [...]}`` — record lines in the requested
    format (plus header lines first when ``"header": true``) — plus
    per-request ``stats``/``elapsed_s`` and ``coalesced`` (how many
    requests shared the engine run; ``stats`` covers that whole run).
``map_file``
    Map server-side FASTQ paths and write an output file server-side:
    ``{"op": "map_file", "reads1": ..., "reads2": ..., "out": ...}``
    (``reads2`` omitted for single-read engines), plus the same
    optional ``"engine"``/``"format"``/``"timeout_s"`` keys.  The
    heavy-duty path: no reads cross the socket, and the output is
    byte-identical to an offline ``repro map`` with the same config
    (asserted in the test suite and the CI smoke job).  Never
    coalesced.  An input that is missing or not FASTQ, or an ``out``
    that cannot be written, answers ``bad_request``.
``stats``
    Cumulative mapper counters (GenPair-compatible ``mapper`` plus
    per-engine ``engines``), server totals (requests served, pairs
    mapped, per-op counts, errors, connection counts), scheduler
    totals (``scheduler``: queue depth, batches, coalesced requests,
    busy rejections, timeouts), the full process metrics registry
    snapshot (``metrics``), and ``host`` metadata.
``shutdown``
    Acknowledge, then stop the accept loops, drain the queue, and tear
    the mapper down.

Mapping requests additionally accept ``"trace": true``, which returns
a per-stage span breakdown alongside the normal response (traced
requests run solo, never coalesced, so the spans cover exactly their
own work).  ``"header"`` and ``"trace"`` are JSON booleans when
present; any other value is a ``bad_request``.  Request counts and
latencies are recorded per op into the metrics registry
(``serve.requests.<op>`` / ``serve.request_s.<op>``,
``serve.map_s.<engine>.<format>`` for mapping work, plus the
scheduler's queue/batch metrics).

Every response carries ``"ok"``; failures answer ``{"ok": false,
"error": <message>, "error_code": <code>}`` (see
:mod:`repro.serve.protocol` for the codes) and the connection stays
usable.  SIGTERM/SIGINT (via :func:`serve`) shut down gracefully:
in-flight requests finish, queued ones answer ``shutting_down``, the
socket file is unlinked, the mapper is closed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, Union

from ..obs import get_registry, host_metadata
from ..util.sync import maybe_sanitize_lock
from . import protocol
from .address import TCP, Address, parse_address
from .listeners import (ServerError, TcpListener, UnixListener,
                        bound_endpoints)
from .protocol import (E_BAD_REQUEST, E_BUSY, E_OVERSIZED,
                       E_SHUTTING_DOWN, E_TIMEOUT, E_UNKNOWN_OP,
                       RequestError, ServerStats, decode_pairs,
                       decode_reads, error_code, error_reply,
                       request_flag, request_timeout_s)
from .scheduler import MapTask, Scheduler, ServeSettings

PathLike = Union[str, "os.PathLike[str]"]

#: The backoff hint shipped with ``busy`` replies.
RETRY_AFTER_S = 0.05


class MapServer:
    """Serve mapping requests from one warm :class:`~repro.api.Mapper`.

    Connections are handled in threads (one accept thread per
    listener, one thread per connection, at most
    ``settings.max_clients`` at once); mapping work funnels through
    the :class:`~repro.serve.scheduler.Scheduler`'s bounded queue onto
    the one warm mapper, so a slow or idle client never blocks another
    client's requests — only the *mapping* itself is serialized, and
    compatible small requests share engine runs.
    """

    def __init__(self, mapper, socket_path: Optional[PathLike] = None,
                 backlog: int = 16, *,
                 tcp: Optional[Union[str, Address]] = None,
                 settings: Optional[ServeSettings] = None) -> None:
        self.mapper = mapper
        self.settings = (settings if settings is not None
                         else ServeSettings()).validate()
        self.stats = ServerStats()
        self.scheduler = Scheduler(mapper, self.settings)
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._threads_lock = maybe_sanitize_lock("serve.conns")
        self.socket_path: Optional[str] = None
        self.listeners: list = []
        try:
            if socket_path is not None:
                listener = UnixListener(str(socket_path), backlog)
                self.socket_path = listener.path
                self.listeners.append(listener)
            if tcp is not None:
                if isinstance(tcp, str):
                    tcp = parse_address(tcp)
                if tcp.kind != TCP:
                    raise ServerError(
                        f"tcp endpoint {tcp.display!r} is not a TCP "
                        "address")
                self.listeners.append(TcpListener(tcp, backlog))
            if not self.listeners:
                raise ServerError("no endpoint to serve: pass a UNIX "
                                  "socket path and/or a TCP address")
            # Build the default engine now, so the first request finds
            # it warm.
            mapper.warm_up()
        except BaseException:
            for listener in self.listeners:
                listener.close()
            raise

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound TCP port (resolved even for ``--tcp :0``), or
        ``None`` when only the UNIX socket is served."""
        for listener in self.listeners:
            if listener.kind == TCP:
                return listener.port
        return None

    # -- main loop -----------------------------------------------------

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`request_shutdown`."""
        self.scheduler.start()
        acceptors = []
        try:
            for listener in self.listeners:
                thread = threading.Thread(
                    target=self._accept_loop, args=(listener,),
                    name=f"repro-serve-accept-{listener.kind}",
                    daemon=True)
                thread.start()
                acceptors.append(thread)
            self._stop.wait()
        finally:
            self._stop.set()
            self.close()
            for thread in acceptors:
                thread.join(timeout=5.0)

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (signal-handler safe)."""
        self._stop.set()

    def close(self) -> None:
        """Stop accepting, finish in-flight requests, release resources."""
        self._stop.set()
        for listener in self.listeners:
            listener.close()
        # The scheduler finishes the in-flight batch, answers queued
        # requests with shutting_down, and closes the mapper under the
        # map lock — so the mapper is never closed under an active
        # run.
        self.scheduler.close()
        with self._threads_lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=5.0)

    # -- connection handling -------------------------------------------

    def _accept_loop(self, listener) -> None:
        while not self._stop.is_set():
            try:
                conn = listener.accept()
            except OSError:
                return  # listener closed under us during shutdown
            if conn is None:
                continue
            if not self.stats.connection_opened(
                    limit=self.settings.max_clients):
                self._refuse_connection(conn)
                continue
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-serve-conn", daemon=True)
            with self._threads_lock:
                thread.start()  # before close() can find it and join it
                self._threads = [t for t in self._threads
                                 if t.is_alive()] + [thread]

    def _refuse_connection(self, conn) -> None:
        """Over the client limit: one ``busy`` line, then close."""
        self._note_busy()
        reply = error_reply(
            E_BUSY,
            f"daemon is serving {self.settings.max_clients} clients "
            "already; retry shortly",
            retry_after_s=RETRY_AFTER_S)
        try:
            conn.sendall(json.dumps(reply).encode() + b"\n")
        except OSError:
            pass
        finally:
            conn.close()

    def _serve_connection(self, conn) -> None:
        try:
            with conn:
                reader = conn.makefile("rb")
                try:
                    self._serve_requests(conn, reader)
                finally:
                    reader.close()
        finally:
            self.stats.connection_closed()

    def _serve_requests(self, conn, reader) -> None:
        while not self._stop.is_set():
            # Read the limit through the module so tests can shrink it.
            limit = protocol.MAX_REQUEST_BYTES
            try:
                line = reader.readline(limit)
            except (OSError, ValueError):
                return  # client went away mid-request
            if not line:
                return
            if len(line) >= limit and not line.endswith(b"\n"):
                # A partial read of an over-limit request: the rest
                # of the line is still in the pipe, so answering and
                # reading on would pair later responses with the
                # wrong requests.  Reject once and drop the
                # connection.
                self._count_error()
                self._send(conn, error_reply(
                    E_OVERSIZED,
                    f"request exceeds {limit} bytes; use map_file "
                    "for large inputs"))
                return
            response = self._dispatch_line(line)
            if not self._send(conn, response):
                return
            if response.get("op") == "shutdown" \
                    and response.get("ok"):
                self.request_shutdown()
                return

    @staticmethod
    def _send(conn, response: Dict[str, Any]) -> bool:
        try:
            conn.sendall(json.dumps(response).encode() + b"\n")
        except (OSError, ValueError):
            return False  # client disconnected; result is discarded
        return True

    def _count_error(self) -> None:
        """One failed request: the server total and, when metrics are
        on, the ``serve.errors`` counter (every error path goes
        through here so the two never drift)."""
        self.stats.count_error()
        obs = get_registry()
        if obs.enabled:
            obs.counter("serve.errors").inc()

    def _note_busy(self) -> None:
        obs = get_registry()
        if obs.enabled:
            obs.counter("serve.busy").inc()

    def _dispatch_line(self, line: bytes) -> Dict[str, Any]:
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            self._count_error()
            return error_reply(E_BAD_REQUEST, f"bad request: {exc}")
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) \
            if isinstance(op, str) and not op.startswith("_") else None
        if handler is None:
            self._count_error()
            available = sorted(name[len("_op_"):] for name in dir(self)
                               if name.startswith("_op_"))
            return error_reply(
                E_UNKNOWN_OP,
                f"unknown op {op!r}; available: {', '.join(available)}",
                op=op)
        start = time.perf_counter()
        try:
            response = handler(request)
        except Exception as exc:  # keep serving after a bad request
            self._count_error()
            return error_reply(error_code(exc),
                               f"{type(exc).__name__}: {exc}", op=op)
        if not response.get("ok", True):
            self._count_error()
            response.setdefault("op", op)
            return response
        elapsed = time.perf_counter() - start
        obs = get_registry()
        if obs.enabled:
            obs.fold(((f"serve.requests.{op}", 1),),
                     ((f"serve.request_s.{op}", elapsed),))
        response.setdefault("ok", True)
        response["op"] = op
        response["elapsed_s"] = round(elapsed, 6)
        return response

    # -- control ops (answered from the connection thread) -------------

    def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from ..api.registry import ENGINES, OUTPUT_FORMATS

        self.stats.record("ping")
        return {"pid": os.getpid(),
                "uptime_s": round(self.stats.uptime_s, 3),
                "index": self.mapper.index.path,
                "engine": self.mapper.config.engine,
                "engines": sorted(ENGINES),
                "formats": sorted(OUTPUT_FORMATS),
                "listeners": list(bound_endpoints(self.listeners)),
                "config": self.mapper.config.to_dict()}

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from ..api.engines import stats_dict

        self.stats.record("stats")
        return {"server": self.stats.to_dict(),
                "scheduler": self.scheduler.totals(),
                "mapper": stats_dict(self.mapper.stats),
                "engines": self.mapper.engine_stats(),
                "metrics": get_registry().snapshot(),
                "host": host_metadata()}

    def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.stats.record("shutdown")
        return {"goodbye": True}

    # -- mapping ops (validated here, executed by the scheduler) -------

    @staticmethod
    def _workload(request: Dict[str, Any]) -> tuple:
        """The per-request engine/format overrides, validated as names.

        ``None`` means "the facade's configured default" — the one
        warm facade resolves names to (lazily-built, reused) engine
        instances itself.  Both names are checked against their
        tables *here*, before the request touches the queue, so a
        typo'd ``format`` fails in microseconds instead of after the
        whole request has been mapped.
        """
        from ..api.registry import engine_class, output_format

        engine = request.get("engine")
        if engine is not None and not isinstance(engine, str):
            raise RequestError('"engine" must be an engine name '
                               "string")
        fmt = request.get("format")
        if fmt is not None and not isinstance(fmt, str):
            raise RequestError('"format" must be a format name string')
        if engine is not None:
            engine_class(engine)
        if fmt is not None:
            output_format(fmt)
        return engine, fmt

    def _op_map(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from ..api.engines import INPUT_SINGLE

        engine_name, fmt = self._workload(request)
        engine = self.mapper.engine(engine_name)
        if engine.input_kind == INPUT_SINGLE:
            if "pairs" in request:
                raise RequestError(
                    f'engine {engine.name!r} maps single reads; '
                    'send "reads", not "pairs"')
            decoded = decode_reads(request.get("reads"))
        else:
            if "reads" in request:
                raise RequestError(
                    f'engine {engine.name!r} maps read pairs; '
                    'send "pairs", not "reads"')
            decoded = decode_pairs(request.get("pairs"))
        format_name = fmt if fmt is not None \
            else self.mapper.config.output_format
        task = MapTask(
            "map", engine.name, format_name, decoded, len(decoded),
            header=request_flag(request, "header"),
            trace=request_flag(request, "trace"),
            timeout_s=request_timeout_s(
                request, self.settings.request_timeout_s))
        return self._submit_and_wait(task)

    def _op_map_file(self, request: Dict[str, Any]) -> Dict[str, Any]:
        engine_name, fmt = self._workload(request)
        for key in ("reads1", "out"):
            if not isinstance(request.get(key), str):
                raise RequestError(f'"{key}" must be a path string')
        reads2 = request.get("reads2")
        if reads2 is not None and not isinstance(reads2, str):
            raise RequestError('"reads2" must be a path string (omit '
                               "it for single-read engines)")
        engine = self.mapper.engine(engine_name)
        format_name = fmt if fmt is not None \
            else self.mapper.config.output_format
        task = MapTask(
            "map_file", engine.name, format_name,
            (request["reads1"], reads2, request["out"]), 0,
            trace=request_flag(request, "trace"),
            timeout_s=request_timeout_s(
                request, self.settings.request_timeout_s))
        return self._submit_and_wait(task)

    def _submit_and_wait(self, task: MapTask) -> Dict[str, Any]:
        """Queue a mapping task and block for its reply, enforcing the
        deadline from the waiting side too (the scheduler may be deep
        in an earlier batch when it expires)."""
        if not self.scheduler.submit(task):
            if self.scheduler.closing:
                return error_reply(E_SHUTTING_DOWN,
                                   "daemon is shutting down",
                                   op=task.op)
            self._note_busy()
            return error_reply(
                E_BUSY,
                f"request queue is full "
                f"({self.settings.max_queue} waiting); retry shortly",
                op=task.op, retry_after_s=RETRY_AFTER_S,
                queue_depth=self.scheduler.queue_depth())
        reply = task.wait(task.remaining_s())
        if reply is None:
            stage = task.abandon()
            if stage is None:
                # The reply landed in the race window; take it.
                reply = task.wait(None)
            else:
                self.scheduler.note_timeout()
                reply = error_reply(
                    E_TIMEOUT,
                    f"request deadline expired while {stage} (raise "
                    "timeout_s, or retry when the daemon is idle)",
                    op=task.op, stage=stage)
        if reply.get("ok", True):
            self.stats.record(task.op, pairs=task.items)
        return reply


def serve(mapper, socket_path: Optional[PathLike] = None,
          install_signal_handlers: bool = True, *,
          tcp: Optional[Union[str, Address]] = None,
          settings: Optional[ServeSettings] = None) -> MapServer:
    """Run a :class:`MapServer` until shutdown (the CLI entry point).

    Blocks until shutdown; SIGTERM/SIGINT trigger the same graceful
    path as a ``shutdown`` request.  Returns the (closed) server so
    callers can read its final :attr:`MapServer.stats`.
    """
    server = MapServer(mapper, socket_path, tcp=tcp,
                       settings=settings)
    # Signal handlers can only be installed from the main thread; a
    # server hosted in a background thread (tests, embedding) relies
    # on shutdown requests instead.
    if install_signal_handlers \
            and threading.current_thread() is threading.main_thread():
        import signal

        def _graceful(signum, frame):
            server.request_shutdown()

        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
    server.serve_forever()
    return server
