"""End-to-end serving tier: TCP endpoint, byte-identity, deadlines,
client limits, and the client's busy-retry policy.

Everything here runs a real :class:`MapServer` (warm mapper, scheduler
thread, accept threads) under the runtime lock sanitizer, talking to
it over real sockets — the deterministic scheduler internals are
covered in test_scheduler.py.
"""

import contextlib
import json
import socket
import threading
import time

import pytest

from repro.api import Mapper, MapServer
from repro.api.client import (Client, RequestTimeoutError,
                              ServerBusyError)
from repro.genome import decode
from repro.index import save_index
from repro.serve import ServeSettings
from repro.serve.protocol import decode_pairs
from repro.util.sync import reset_order_graph, set_sanitize

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"),
    reason="the daemon needs UNIX-domain sockets")

CLIENTS = 8
REQUESTS_PER_CLIENT = 3


@pytest.fixture(scope="module")
def pairs(simulator):
    return simulator.simulate_pairs(10)


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, small_index):
    path = tmp_path_factory.mktemp("tier") / "tier.rpix"
    save_index(path, small_index)
    return path


@pytest.fixture(autouse=True)
def sanitized():
    previous = set_sanitize(True)
    reset_order_graph()
    yield
    set_sanitize(previous)
    reset_order_graph()


@contextlib.contextmanager
def running_server(index_path, socket_path=None, tcp=None,
                   settings=None, mapper=None):
    if mapper is None:
        mapper = Mapper.from_index(index_path, full_fallback=False)
    server = MapServer(mapper, socket_path, tcp=tcp,
                       settings=settings)
    thread = threading.Thread(target=server.serve_forever,
                              daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()


def wire_pairs(pairs):
    return [(decode(p.read1.codes), decode(p.read2.codes), p.name)
            for p in pairs]


def slow_mapper(index_path, delay_s):
    """A real mapper whose map() sleeps first — deadline fodder."""
    mapper = Mapper.from_index(index_path, full_fallback=False)
    original = mapper.map

    def delayed(items, engine=None):
        time.sleep(delay_s)
        return original(items, engine=engine)

    mapper.map = delayed
    return mapper


class TestTcpEndpoint:
    def test_tcp_and_unix_replies_match_offline(self, tmp_path,
                                                index_path, pairs):
        payload = wire_pairs(pairs)
        offline = Mapper.from_index(index_path, full_fallback=False)
        try:
            reference = list(offline.lines(
                offline.map(decode_pairs(payload)), format="sam",
                header=False))
        finally:
            offline.close()
        assert reference

        with running_server(index_path, tmp_path / "tier.sock",
                            tcp="127.0.0.1:0") as server:
            port = server.tcp_port
            assert port  # --tcp :0 resolved to a real bound port
            with Client(server.socket_path) as client:
                over_unix = client.map_pairs(payload)
            with Client(f"127.0.0.1:{port}") as client:
                over_tcp = client.map_pairs(payload)
                listeners = client.ping()["listeners"]
        # Byte-identity: offline == UNIX == TCP, per record line.
        assert over_unix["lines"] == reference
        assert over_tcp["lines"] == reference
        assert sorted(entry["kind"] for entry in listeners) \
            == ["tcp", "unix"]

    def test_tcp_only_server_needs_no_socket_path(self, index_path,
                                                  pairs):
        payload = wire_pairs(pairs[:2])
        with running_server(index_path,
                            tcp="127.0.0.1:0") as server:
            assert server.socket_path is None
            with Client(f"127.0.0.1:{server.tcp_port}") as client:
                assert client.map_pairs(payload)["pairs"] == 2


class TestConcurrentTcpClients:
    def test_hammer_byte_identity_and_exact_stats(self, index_path,
                                                  pairs):
        payload = wire_pairs(pairs)
        # A small coalesce window so concurrent requests actually
        # share engine runs (identity must hold either way).
        settings = ServeSettings(coalesce_wait_s=0.01)
        with running_server(index_path, tcp="127.0.0.1:0",
                            settings=settings) as server:
            address = f"127.0.0.1:{server.tcp_port}"
            with Client(address) as client:
                reference = client.map_pairs(payload)["lines"]
            assert reference

            failures, mismatches = [], []

            def hammer(index):
                try:
                    with Client(address) as client:
                        for _ in range(REQUESTS_PER_CLIENT):
                            reply = client.map_pairs(payload)
                            if reply["lines"] != reference:
                                mismatches.append(index)
                except Exception as exc:  # noqa: BLE001
                    failures.append((index, exc))

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert failures == []
            assert mismatches == []

            with Client(address) as client:
                report = client.stats()
        stats = report["server"]
        total = CLIENTS * REQUESTS_PER_CLIENT + 1  # + the reference
        # Exact totals even when requests were coalesced: the server
        # counts per request, not per engine run.
        assert stats["by_op"]["map"] == total
        assert stats["pairs_mapped"] == total * len(pairs)
        assert stats["errors"] == 0
        assert stats["requests"] == total + 1  # + the stats op
        assert stats["connections"] == CLIENTS + 2
        scheduler = report["scheduler"]
        assert scheduler["batches"] <= total
        assert scheduler["timeouts"] == 0
        assert scheduler["queue_depth"] == 0

    def test_top_renders_scheduler_and_client_lines(self, index_path,
                                                    pairs):
        from repro.obs.render import render_top

        with running_server(index_path, tcp="127.0.0.1:0") as server:
            with Client(f"127.0.0.1:{server.tcp_port}") as client:
                client.map_pairs(wire_pairs(pairs[:2]))
                report = client.stats()
        text = "\n".join(render_top(report))
        assert "clients: 1 active" in text
        assert "scheduler: queue 0/64" in text


class TestDeadlines:
    def test_deadline_raises_typed_timeout_error(self, tmp_path,
                                                 index_path, pairs):
        mapper = slow_mapper(index_path, delay_s=0.4)
        with running_server(index_path, tmp_path / "slow.sock",
                            mapper=mapper) as server:
            with Client(server.socket_path) as client:
                with pytest.raises(RequestTimeoutError) as excinfo:
                    client.map_pairs(wire_pairs(pairs[:2]),
                                     timeout=0.05)
                assert excinfo.value.stage in ("queued", "executing")
                # The connection survives the timeout; the next
                # (undeadlined) request completes normally.
                reply = client.map_pairs(wire_pairs(pairs[:2]))
                assert reply["pairs"] == 2
                report = client.stats()
        assert report["scheduler"]["timeouts"] == 1
        assert report["server"]["errors"] == 1

    def test_disconnect_mid_request_never_wedges(self, tmp_path,
                                                 index_path, pairs):
        mapper = slow_mapper(index_path, delay_s=0.3)
        with running_server(index_path, tmp_path / "gone.sock",
                            mapper=mapper) as server:
            # A raw client fires a map request and hangs up at once.
            raw = socket.socket(socket.AF_UNIX)
            raw.connect(server.socket_path)
            request = {"op": "map", "pairs": wire_pairs(pairs[:2])}
            raw.sendall(json.dumps(request).encode() + b"\n")
            raw.close()
            # The daemon still answers other clients afterwards.
            with Client(server.socket_path) as client:
                reply = client.map_pairs(wire_pairs(pairs[:2]))
                assert reply["pairs"] == 2


class TestClientLimit:
    def test_over_limit_connection_answers_busy(self, index_path,
                                                pairs):
        settings = ServeSettings(max_clients=1)
        with running_server(index_path, tcp="127.0.0.1:0",
                            settings=settings) as server:
            address = f"127.0.0.1:{server.tcp_port}"
            first = Client(address)
            try:
                first.ping()
                second = Client(address, busy_retries=0)
                try:
                    with pytest.raises(ServerBusyError) as excinfo:
                        second.ping()
                    assert excinfo.value.retry_after_s is not None
                finally:
                    second.close()
            finally:
                first.close()
            # Once the slot frees up, the built-in busy retry gets a
            # fresh connection through without hand-rolled loops.
            with Client(address, busy_retries=8) as third:
                assert third.ping()["ok"]


class _BusyThenOkDaemon:
    """A stub NDJSON server: refuses the first ``busy_answers``
    connections with a ``busy`` line (as the real daemon does at the
    client limit), then answers pings normally."""

    def __init__(self, busy_answers):
        self.busy_answers = busy_answers
        self.connections = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve,
                                        daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                self.connections += 1
                if self.connections <= self.busy_answers:
                    reply = {"ok": False, "error": "try later",
                             "error_code": "busy",
                             "retry_after_s": 0.01}
                    conn.sendall(json.dumps(reply).encode() + b"\n")
                    continue
                reader = conn.makefile("rb")
                while reader.readline():
                    conn.sendall(b'{"ok": true, "op": "ping"}\n')

    def close(self):
        self._sock.close()
        self._thread.join(timeout=5)


class TestClientRetryPolicy:
    def test_busy_retries_until_accepted(self):
        daemon = _BusyThenOkDaemon(busy_answers=2)
        try:
            with Client(f"127.0.0.1:{daemon.port}",
                        busy_retries=4,
                        busy_backoff_s=0.01) as client:
                assert client.ping()["ok"]
            assert daemon.connections == 3
        finally:
            daemon.close()

    def test_zero_retries_surfaces_busy_immediately(self):
        daemon = _BusyThenOkDaemon(busy_answers=99)
        try:
            with Client(f"127.0.0.1:{daemon.port}",
                        busy_retries=0) as client:
                with pytest.raises(ServerBusyError) as excinfo:
                    client.ping()
            assert excinfo.value.retry_after_s == 0.01
            assert daemon.connections == 1
        finally:
            daemon.close()

    def test_retry_budget_exhaustion_raises(self):
        daemon = _BusyThenOkDaemon(busy_answers=99)
        try:
            with Client(f"127.0.0.1:{daemon.port}",
                        busy_retries=2,
                        busy_backoff_s=0.01) as client:
                with pytest.raises(ServerBusyError):
                    client.ping()
            assert daemon.connections == 3  # initial + 2 retries
        finally:
            daemon.close()

    def test_bad_retry_arguments_rejected(self):
        with pytest.raises(ValueError):
            Client("x.sock", busy_retries=-1)
        with pytest.raises(ValueError):
            Client("x.sock", busy_backoff_s=0)
