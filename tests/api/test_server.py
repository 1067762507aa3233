"""The serve daemon: protocol, byte-identity, robustness, lifecycle."""

import json
import socket
import threading

import pytest

from repro.api import Client, ClientError, Mapper, MapServer, ServerError
from repro.genome import decode, write_fastq
from repro.index import save_index

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"),
    reason="the daemon needs UNIX-domain sockets")


@pytest.fixture(scope="module")
def pairs(simulator):
    return simulator.simulate_pairs(40)


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, small_reference, seedmap):
    path = tmp_path_factory.mktemp("srv") / "serve.rpix"
    save_index(path, seedmap, small_reference)
    return path


@pytest.fixture()
def server(tmp_path, index_path):
    """A live daemon on a per-test socket; torn down afterwards."""
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


class TestExports:
    def test_api_names_are_the_serve_package_objects(self):
        # repro.api re-exports the daemon lazily, straight from
        # repro.serve (the repro.api.server shim is gone).
        import repro.api
        import repro.serve

        for name in ("MapServer", "ServeSettings", "ServerError",
                     "ServerStats", "serve"):
            assert getattr(repro.api, name) is getattr(repro.serve, name)
        with pytest.raises(ImportError):
            import repro.api.server  # noqa: F401


class TestProtocol:
    def test_ping_reports_identity_and_config(self, server):
        with Client(server.socket_path) as client:
            reply = client.ping()
        assert reply["ok"] and reply["pid"] > 0
        assert reply["index"] == server.mapper.index.path
        assert reply["config"]["seed_length"] \
            == server.mapper.config.seed_length

    def test_map_pairs_round_trip_with_per_request_stats(self, server,
                                                         pairs):
        with Client(server.socket_path) as client:
            reply = client.map_pairs(wire_pairs(pairs))
        assert reply["pairs"] == len(pairs)
        assert len(reply["lines"]) == 2 * len(pairs)
        assert "sam" not in reply  # the lines ship once, under "lines"
        assert reply["stats"]["pairs_total"] == len(pairs)
        assert reply["elapsed_s"] >= 0

    def test_many_requests_one_connection_accumulate_stats(self, server,
                                                           pairs):
        with Client(server.socket_path) as client:
            client.map_pairs(wire_pairs(pairs[:7]))
            client.map_pairs(wire_pairs(pairs[7:12]))
            report = client.stats()
        assert report["mapper"]["pairs_total"] == 12
        assert report["server"]["pairs_mapped"] == 12
        assert report["server"]["by_op"]["map"] == 2

    def test_unknown_op_keeps_connection_usable(self, server):
        with Client(server.socket_path) as client:
            with pytest.raises(ClientError) as excinfo:
                client.request({"op": "frobnicate"})
            assert "frobnicate" in str(excinfo.value)
            # Listed from the handlers themselves, not a literal.
            assert "available: map, map_file, ping, shutdown, stats" \
                in str(excinfo.value)
            assert client.ping()["ok"]

    def test_malformed_request_keeps_connection_usable(self, server):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(server.socket_path)
        try:
            raw.sendall(b"this is not json\n")
            reader = raw.makefile("rb")
            reply = json.loads(reader.readline())
            assert not reply["ok"] and "bad request" in reply["error"]
            raw.sendall(json.dumps({"op": "ping"}).encode() + b"\n")
            assert json.loads(reader.readline())["ok"]
        finally:
            raw.close()

    def test_bad_pairs_payload_is_an_error_not_a_crash(self, server):
        with Client(server.socket_path) as client:
            with pytest.raises(ClientError):
                client.request({"op": "map", "pairs": "nope"})
            assert client.ping()["ok"]

    def test_oversized_request_rejected_once_then_disconnected(
            self, server, monkeypatch):
        # A partial readline of an over-limit request must not
        # desynchronize request/response pairing: exactly one error
        # answer, then the connection drops; new connections serve on.
        monkeypatch.setattr("repro.serve.protocol.MAX_REQUEST_BYTES",
                            64)
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(server.socket_path)
        try:
            raw.sendall(b'{"op": "map", "pairs": "'
                        + b"A" * 256 + b'"}\n')
            reader = raw.makefile("rb")
            reply = json.loads(reader.readline())
            assert not reply["ok"] and "exceeds" in reply["error"]
            assert reader.readline() == b""  # connection was closed
        finally:
            raw.close()
        with Client(server.socket_path) as client:
            assert client.ping()["ok"]


class TestByteIdentity:
    def test_daemon_map_file_matches_offline_map(self, server, tmp_path,
                                                 index_path, pairs):
        fq1, fq2 = tmp_path / "d_1.fq", tmp_path / "d_2.fq"
        write_fastq(fq1, ((p.read1.name, p.read1.codes) for p in pairs))
        write_fastq(fq2, ((p.read2.name, p.read2.codes) for p in pairs))
        offline = tmp_path / "offline.sam"
        with Mapper.from_index(index_path, full_fallback=False) \
                as mapper:
            mapper.write(mapper.map_file(fq1, fq2), offline,
                         format="sam")
        served = tmp_path / "served.sam"
        with Client(server.socket_path) as client:
            reply = client.map_file(fq1, fq2, served)
        assert reply["records"] == 2 * len(pairs)
        assert served.read_bytes() == offline.read_bytes()

    def test_inline_map_with_header_reproduces_the_file(self, server,
                                                        tmp_path,
                                                        index_path,
                                                        pairs):
        named = [(p.read1.codes, p.read2.codes, p.name) for p in pairs]
        offline = tmp_path / "offline_inline.sam"
        with Mapper.from_index(index_path, full_fallback=False) \
                as mapper:
            mapper.write(mapper.map_stream(named), offline,
                         format="sam")
        with Client(server.socket_path) as client:
            reply = client.map_pairs(wire_pairs(pairs), header=True)
        assert "\n".join(reply["lines"]) + "\n" == offline.read_text()


class TestLifecycle:
    def test_shutdown_request_stops_the_daemon(self, tmp_path,
                                               index_path):
        mapper = Mapper.from_index(index_path, full_fallback=False)
        server = MapServer(mapper, tmp_path / "stop.sock")
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        with Client(server.socket_path) as client:
            assert client.shutdown()["ok"]
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert not (tmp_path / "stop.sock").exists()
        with pytest.raises(RuntimeError):
            mapper.map([])  # the mapper was closed with the server

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shutdown_returns_every_fd(self, tmp_path, index_path, pairs,
                                       fds_returned, workers):
        """A daemon that answered UNIX and TCP clients, inline and by
        file, releases its listeners, connections, index maps and
        worker pool when it stops."""
        fq1, fq2 = tmp_path / "f_1.fq", tmp_path / "f_2.fq"
        write_fastq(fq1, ((p.read1.name, p.read1.codes) for p in pairs))
        write_fastq(fq2, ((p.read2.name, p.read2.codes) for p in pairs))
        with fds_returned():
            mapper = Mapper.from_index(index_path, workers=workers,
                                       batch_size=8, full_fallback=False)
            server = MapServer(mapper, tmp_path / "fds.sock",
                               tcp="127.0.0.1:0")
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            with Client(server.socket_path) as client:
                assert client.map_pairs(wire_pairs(pairs[:8]))["pairs"] \
                    == 8
                assert client.map_file(fq1, fq2, tmp_path / "served.sam")[
                    "records"] == 2 * len(pairs)
            with Client(f"127.0.0.1:{server.tcp_port}") as client:
                assert client.shutdown()["ok"]
            thread.join(timeout=10)
            assert not thread.is_alive()
            del server, mapper

    def test_second_daemon_on_a_live_socket_is_refused(self, server,
                                                       index_path):
        mapper = Mapper.from_index(index_path, full_fallback=False)
        try:
            with pytest.raises(ServerError) as excinfo:
                MapServer(mapper, server.socket_path)
            assert "already being served" in str(excinfo.value)
        finally:
            mapper.close()

    def test_stale_socket_file_is_reclaimed(self, tmp_path, index_path):
        stale = tmp_path / "stale.sock"
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(str(stale))
        leftover.close()  # bound but never listening: a dead daemon
        mapper = Mapper.from_index(index_path, full_fallback=False)
        server = MapServer(mapper, stale)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            with Client(stale) as client:
                assert client.ping()["ok"]
        finally:
            server.request_shutdown()
            thread.join(timeout=10)

    def test_client_error_when_no_daemon(self, tmp_path):
        with pytest.raises(ClientError) as excinfo:
            Client(tmp_path / "nobody.sock")
        assert "repro serve" in str(excinfo.value)

    def test_unbindable_socket_path_is_a_server_error(self, tmp_path,
                                                      index_path):
        mapper = Mapper.from_index(index_path, full_fallback=False)
        try:
            with pytest.raises(ServerError) as excinfo:
                MapServer(mapper, tmp_path / "no-such-dir" / "d.sock")
            assert "cannot bind" in str(excinfo.value)
        finally:
            mapper.close()

    def test_map_pairs_dict_entries_with_optional_names(self, server,
                                                        pairs):
        entries = [{"read1": decode(p.read1.codes),
                    "read2": decode(p.read2.codes)} for p in pairs[:3]]
        with Client(server.socket_path) as client:
            reply = client.map_pairs(entries)
            assert reply["pairs"] == 3
            # Unnamed pairs are numbered by request position.
            assert reply["lines"][0].startswith("pair0/")
            with pytest.raises(ClientError) as excinfo:
                client.map_pairs([{"read1": "ACGT"}])
            assert "read2" in str(excinfo.value)


class TestEnginePolymorphicProtocol:
    """Per-request engine/format selection against the one warm facade."""

    @pytest.fixture(scope="class")
    def long_reads(self, simulator):
        return simulator.simulate_long_reads(3, length_mean=900,
                                             length_sd=100)

    def test_ping_lists_engines_and_formats(self, server):
        with Client(server.socket_path) as client:
            reply = client.ping()
        assert reply["engine"] == "genpair"
        assert set(reply["engines"]) == {"genpair", "mm2", "longread"}
        assert set(reply["formats"]) == {"sam", "paf", "jsonl"}

    def test_mm2_paf_wire_matches_offline(self, server, index_path,
                                          pairs):
        named = [(p.read1.codes, p.read2.codes, p.name) for p in pairs]
        with Mapper.from_index(index_path, full_fallback=False) \
                as mapper:
            offline = list(mapper.lines(mapper.map_stream(
                named, engine="mm2"), format="paf"))
        with Client(server.socket_path) as client:
            reply = client.map_pairs(wire_pairs(pairs), header=True,
                                     engine="mm2", format="paf")
        assert reply["engine"] == "mm2"
        assert reply["format"] == "paf"
        assert reply["lines"] == offline
        assert "sam" not in reply
        assert reply["stats"]["pairs_seen"] == len(pairs)
        assert reply["stats"]["reads_seen"] == 2 * len(pairs)

    def test_longread_jsonl_wire_matches_offline(self, server,
                                                 index_path,
                                                 long_reads):
        items = [(r.codes, r.name) for r in long_reads]
        with Mapper.from_index(index_path, full_fallback=False) \
                as mapper:
            offline = list(mapper.lines(mapper.map_stream(
                items, engine="longread"), format="jsonl"))
        with Client(server.socket_path) as client:
            reply = client.map_reads(
                [(decode(r.codes), r.name) for r in long_reads],
                engine="longread", format="jsonl")
        assert reply["lines"] == offline
        assert reply["stats"]["reads_total"] == len(long_reads)

    def test_map_file_engine_format_matches_offline(self, server,
                                                    tmp_path,
                                                    index_path, pairs):
        fq1, fq2 = tmp_path / "e_1.fq", tmp_path / "e_2.fq"
        write_fastq(fq1, ((p.read1.name, p.read1.codes) for p in pairs))
        write_fastq(fq2, ((p.read2.name, p.read2.codes) for p in pairs))
        offline = tmp_path / "offline.paf"
        with Mapper.from_index(index_path, full_fallback=False) \
                as mapper:
            mapper.write(mapper.map_file(fq1, fq2, engine="mm2"),
                         offline, format="paf")
        served = tmp_path / "served.paf"
        with Client(server.socket_path) as client:
            reply = client.map_file(fq1, fq2, served, engine="mm2",
                                    format="paf")
        assert reply["engine"] == "mm2"
        assert served.read_bytes() == offline.read_bytes()

    def test_wrong_payload_key_for_engine_is_an_error(self, server,
                                                      pairs):
        with Client(server.socket_path) as client:
            with pytest.raises(ClientError, match="single reads"):
                client.request({"op": "map", "engine": "longread",
                                "pairs": [["ACGT", "ACGT"]]})
            with pytest.raises(ClientError, match="read pairs"):
                client.request({"op": "map", "engine": "mm2",
                                "reads": [["ACGT"]]})
            # the connection stays usable afterwards
            assert client.ping()["ok"]

    def test_unknown_engine_is_an_error_naming_available(self, server):
        with Client(server.socket_path) as client:
            with pytest.raises(ClientError, match="genpair"):
                client.request({"op": "map", "engine": "star",
                                "pairs": []})

    def test_unknown_format_rejected_before_mapping(self, server,
                                                    pairs):
        with Client(server.socket_path) as client:
            with pytest.raises(ClientError, match="jsonl, paf, sam"):
                client.map_pairs(wire_pairs(pairs), format="bam")
            # nothing was mapped, and the facade is still serviceable
            # (no abandoned run holding the one-run-at-a-time slot)
            before = client.stats()["mapper"]["pairs_total"]
            reply = client.map_pairs(wire_pairs(pairs[:2]))
            assert reply["pairs"] == 2
            assert client.stats()["mapper"]["pairs_total"] \
                == before + 2

    def test_unknown_format_on_map_file_leaves_mapper_usable(
            self, server, tmp_path, pairs):
        fq1, fq2 = tmp_path / "f_1.fq", tmp_path / "f_2.fq"
        write_fastq(fq1, ((p.read1.name, p.read1.codes) for p in pairs))
        write_fastq(fq2, ((p.read2.name, p.read2.codes) for p in pairs))
        with Client(server.socket_path) as client:
            with pytest.raises(ClientError, match="output format"):
                client.map_file(fq1, fq2, tmp_path / "x.out",
                                format="parquet")
            reply = client.map_file(fq1, fq2, tmp_path / "ok.sam")
            assert reply["records"] == 2 * len(pairs)

    def test_stats_report_per_engine_totals(self, server, pairs):
        with Client(server.socket_path) as client:
            client.map_pairs(wire_pairs(pairs[:5]), engine="mm2")
            report = client.stats()
        assert report["engines"]["mm2"]["pairs_seen"] == 5
