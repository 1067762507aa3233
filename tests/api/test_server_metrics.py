"""Daemon observability: expanded stats reply, request metrics, trace."""

import os
import socket
import threading

import pytest

from repro.api import Client, ClientError, Mapper, MapServer
from repro.genome import decode
from repro.index import save_index
from repro.obs import get_registry

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"),
    reason="the daemon needs UNIX-domain sockets")


@pytest.fixture(scope="module")
def pairs(simulator):
    return simulator.simulate_pairs(40)


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, small_reference, seedmap):
    path = tmp_path_factory.mktemp("obs_srv") / "serve.rpix"
    save_index(path, seedmap, small_reference)
    return path


@pytest.fixture()
def server(tmp_path, index_path):
    mapper = Mapper.from_index(index_path, full_fallback=False)
    instance = MapServer(mapper, tmp_path / "daemon.sock")
    thread = threading.Thread(target=instance.serve_forever,
                              daemon=True)
    thread.start()
    yield instance
    instance.request_shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


def wire_pairs(pairs):
    return [(decode(p.read1.codes), decode(p.read2.codes), p.name)
            for p in pairs]


class TestExpandedStats:
    def test_stats_reply_carries_metrics_and_host(self, server, pairs):
        with Client(server.socket_path) as client:
            client.map_pairs(wire_pairs(pairs))
            reply = client.stats()
        metrics = reply["metrics"]
        assert metrics["counters"]["serve.requests.map"] >= 1
        hists = metrics["histograms"]
        assert hists["serve.request_s.map"]["count"] >= 1
        assert hists["serve.map_s.genpair.sam"]["count"] >= 1
        assert hists["pipeline.seed_query_s"]["count"] >= 1
        assert reply["host"]["cpu_count"] == os.cpu_count()

    def test_request_metrics_grow_per_request(self, server, pairs):
        registry = get_registry()
        with Client(server.socket_path) as client:
            before = registry.snapshot()["counters"]
            client.map_pairs(wire_pairs(pairs[:5]))
            client.map_pairs(wire_pairs(pairs[5:9]))
            after = registry.snapshot()["counters"]
        assert (after["serve.requests.map"]
                - before.get("serve.requests.map", 0)) == 2

    def test_errors_counted_in_registry_and_server(self, server):
        registry = get_registry()
        before = registry.snapshot()["counters"].get("serve.errors", 0)
        with Client(server.socket_path) as client:
            with pytest.raises(ClientError):
                client.request({"op": "map", "pairs": "nope"})
            reply = client.stats()
        after = registry.snapshot()["counters"]["serve.errors"]
        assert after - before == 1
        assert reply["server"]["errors"] >= 1


class TestTraceFlag:
    def test_trace_returns_stage_spans(self, server, pairs):
        with Client(server.socket_path) as client:
            reply = client.map_pairs(wire_pairs(pairs[:8]), trace=True)
        names = [entry["name"] for entry in reply["trace"]]
        assert "serve.map" in names and "serve.render" in names
        # The in-process genpair engine's chunk spans are captured too.
        assert "seed.query_batch" in names
        assert "pair.filter_align" in names
        for entry in reply["trace"]:
            assert entry["elapsed_s"] >= 0.0
            assert entry["depth"] >= 0

    def test_trace_attributes_the_mm2_engine_by_stage(self, server,
                                                      pairs):
        with Client(server.socket_path) as client:
            reply = client.map_pairs(wire_pairs(pairs[:3]), engine="mm2",
                                     trace=True)
        names = [entry["name"] for entry in reply["trace"]]
        # One request of three pairs is one chunk: seeding, chaining and
        # alignment once, pairing pair by pair.
        assert [names.count(stage) for stage in (
            "mm2.seeding", "mm2.chaining", "mm2.alignment",
            "mm2.pairing")] == [1, 1, 1, 3]
        assert "seed.query_batch" not in names

    def test_trace_flag_never_changes_the_wire(self, server, pairs):
        with Client(server.socket_path) as client:
            plain = client.map_pairs(wire_pairs(pairs), header=True)
            traced = client.map_pairs(wire_pairs(pairs), header=True,
                                      trace=True)
        assert traced["lines"] == plain["lines"]
        assert "trace" not in plain

    def test_map_file_accepts_trace(self, server, tmp_path, pairs,
                                    index_path):
        from repro.genome import write_fastq

        r1 = tmp_path / "r1.fq"
        r2 = tmp_path / "r2.fq"
        write_fastq(r1, ((p.read1.name, p.read1.codes) for p in pairs))
        write_fastq(r2, ((p.read2.name, p.read2.codes) for p in pairs))
        out = tmp_path / "out.sam"
        with Client(server.socket_path) as client:
            reply = client.map_file(r1, r2, out, trace=True)
        assert reply["records"] == 2 * len(pairs)
        assert any(entry["name"] == "serve.map"
                   for entry in reply["trace"])
