"""Concurrent-client stress: per-request byte-identity and exact
aggregate stats under the runtime lock sanitizer.

One daemon, N client threads hammering it in parallel.  Two things
must hold at the end: every reply's record lines are byte-identical
to a single-threaded reference reply (mapping is deterministic and
connection state never leaks between threads), and the aggregate
counters are *exact* (no lost updates — the race this PR's lint
family and MetricsRegistry/ServerStats fixes exist for).
"""

import socket
import threading

import pytest

from repro.api import Client, Mapper, MapServer
from repro.genome import decode
from repro.index import save_index
from repro.util.sync import reset_order_graph, set_sanitize

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"),
    reason="the daemon needs UNIX-domain sockets")

CLIENTS = 8
REQUESTS_PER_CLIENT = 5


@pytest.fixture(scope="module")
def pairs(simulator):
    return simulator.simulate_pairs(12)


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, small_index):
    path = tmp_path_factory.mktemp("csrv") / "serve.rpix"
    save_index(path, small_index)
    return path


@pytest.fixture()
def server(tmp_path, index_path):
    previous = set_sanitize(True)
    reset_order_graph()
    mapper = Mapper.from_index(index_path, full_fallback=False)
    instance = MapServer(mapper, tmp_path / "stress.sock")
    thread = threading.Thread(target=instance.serve_forever,
                              daemon=True)
    thread.start()
    yield instance
    instance.request_shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()
    set_sanitize(previous)
    reset_order_graph()


def wire_pairs(pairs):
    return [(decode(p.read1.codes), decode(p.read2.codes), p.name)
            for p in pairs]


class TestConcurrentClients:
    def test_stress_byte_identity_and_exact_stats(self, server,
                                                  pairs):
        payload = wire_pairs(pairs)
        with Client(server.socket_path) as client:
            reference = client.map_pairs(payload)["lines"]
        assert reference

        failures = []
        mismatches = []

        def hammer(index):
            try:
                with Client(server.socket_path) as client:
                    for _ in range(REQUESTS_PER_CLIENT):
                        reply = client.map_pairs(payload)
                        if reply["lines"] != reference:
                            mismatches.append(index)
            except Exception as exc:  # noqa: BLE001 - surfaced below
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

        with Client(server.socket_path) as client:
            report = client.stats()
        stats = report["server"]
        total = CLIENTS * REQUESTS_PER_CLIENT + 1  # + the reference
        assert stats["by_op"]["map"] == total
        assert stats["pairs_mapped"] == total * len(pairs)
        assert stats["errors"] == 0
        # requests counts every op on every connection, the final
        # stats op included.
        assert stats["requests"] == total + 1

    def test_registry_totals_exact_under_threads(self):
        """The module-level registry lock: N threads x M increments
        land exactly, and histogram observe counts are exact too."""
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        threads_n, each = 16, 500
        barrier = threading.Barrier(threads_n)

        def worker():
            barrier.wait()
            for _ in range(each):
                registry.counter("hammer.count").inc()
                registry.histogram("hammer.lat").observe(0.001)

        threads = [threading.Thread(target=worker)
                   for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        snap = registry.snapshot()
        assert snap["counters"]["hammer.count"] == threads_n * each
        assert snap["histograms"]["hammer.lat"]["count"] \
            == threads_n * each
        assert sum(snap["histograms"]["hammer.lat"]["counts"]) \
            == threads_n * each


class TestCloseDuringAccept:
    def test_close_when_the_accept_loop_lets_go_of_its_lock(
            self, tmp_path, index_path):
        """``close()`` runs at the exact moment the accept loop releases
        the connection-thread lock after publishing a connection: every
        thread it finds there has started, so it joins them all."""
        mapper = Mapper.from_index(index_path, full_fallback=False)
        server = MapServer(mapper, tmp_path / "race.sock")
        ours, theirs = socket.socketpair()
        theirs.close()  # the connection ends as soon as it is read
        connections = iter([ours])

        class OneConnection:
            def accept(self):
                conn = next(connections, None)
                if conn is None:
                    raise OSError("listener closed")
                return conn

        lock = server._threads_lock
        closes = []

        class CloseOnRelease:
            def __enter__(self):
                lock.acquire()

            def __exit__(self, *exc_info):
                lock.release()
                if not closes:
                    closes.append(threading.current_thread())
                    server.close()

        server._threads_lock = CloseOnRelease()
        server._accept_loop(OneConnection())
        assert closes == [threading.current_thread()]
        assert len(server._threads) == 1
        assert not server._threads[0].is_alive()
        assert server.stats.active_connections == 0
