"""The README's metric table against what the code records.

Every row must name a metric some run records, with the row's kind, and
every name a run records must fall under a row of its kind.  The runs
cover each layer that records: a two-worker facade mapping every engine
into every format, by file and by wire lines, then a daemon answering
an inline map, a ``map_file``, a bad request, a client over its limit
and a request past its deadline.  ``repro top`` looks metrics up by
name, so it is checked against the same live snapshot.
"""

import re
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.api import Mapper, MapServer
from repro.api.client import (Client, ClientError, RequestTimeoutError,
                              ServerBusyError)
from repro.genome import ReadSimulator, decode, write_fastq
from repro.index import save_index
from repro.obs import get_registry, render_top
from repro.serve import ServeSettings

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"),
    reason="the daemon needs UNIX-domain sockets")

README = Path(__file__).resolve().parents[2] / "README.md"

#: Snapshot section -> the kind the table names it by.
KINDS = {"counters": "counter", "gauges": "gauge",
         "histograms": "histogram"}


def table_rows():
    """``(metric, kind)`` per row of the README's metric table."""
    lines = README.read_text().splitlines()
    start = lines.index("| metric | kind | meaning |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        metric, kind = (cell.strip() for cell in line.split("|")[1:3])
        rows.append((metric.strip("`"), kind))
    return rows


ROWS = table_rows()


def template(metric):
    """A row's name as a regex: each ``<...>`` segment is one dotted
    component filled at run time."""
    return re.compile(r"[^.]+".join(
        re.escape(part) for part in re.split(r"<[^>]+>", metric)))


def owner(name, kind):
    """The first row of ``kind`` whose name matches ``name``, or
    ``None``.  First, so ``engine.<name>.runs`` claims its counter
    before the catch-all ``engine.<name>.<stat>`` row."""
    for metric, row_kind in ROWS:
        if row_kind == kind and template(metric).fullmatch(name):
            return metric
    return None


@pytest.fixture(scope="module")
def recorded(tmp_path_factory, small_reference, seedmap, simulator):
    """The registry snapshot after the runs, and the daemon's last
    ``stats`` reply."""
    root = tmp_path_factory.mktemp("metric_table")
    index = root / "table.rpix"
    save_index(index, seedmap, small_reference)
    pairs = simulator.simulate_pairs(16)
    named = [(p.read1.codes, p.read2.codes, p.name) for p in pairs]
    wire = [(decode(p.read1.codes), decode(p.read2.codes), p.name)
            for p in pairs]
    reads = [(read.codes, read.name) for read in ReadSimulator(
        small_reference, seed=3).simulate_long_reads(2, 1_000, 200)]
    fq1, fq2 = root / "r_1.fq", root / "r_2.fq"
    write_fastq(fq1, ((p.read1.name, p.read1.codes) for p in pairs))
    write_fastq(fq2, ((p.read2.name, p.read2.codes) for p in pairs))

    registry = get_registry()
    # Process-wide: start it empty so the snapshot holds exactly what
    # these runs record.
    registry.reset()
    mapper = Mapper.from_index(index, workers=2, batch_size=8)
    for engine, items in (("genpair", named), ("mm2", named),
                          ("longread", reads)):
        for fmt in ("sam", "paf", "jsonl"):
            mapper.write(mapper.map_stream(items, engine),
                         root / f"{engine}.{fmt}", format=fmt)
            assert list(mapper.lines(mapper.map_stream(items, engine),
                                     format=fmt))

    slow = threading.Event()
    fast_map = mapper.map

    def map_maybe_slowly(items, engine=None):
        if slow.is_set():
            time.sleep(0.3)
        return fast_map(items, engine=engine)

    mapper.map = map_maybe_slowly
    server = MapServer(mapper, root / "table.sock",
                       settings=ServeSettings(max_clients=1))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with Client(server.socket_path) as client:
            client.map_pairs(wire, engine="mm2", format="paf")
            client.map_file(fq1, fq2, root / "served.sam")
            with pytest.raises(ClientError):
                client.request({"op": "map", "pairs": "nope"})
            over = Client(server.socket_path, busy_retries=0)
            try:
                with pytest.raises(ServerBusyError):
                    over.ping()
            finally:
                over.close()
            slow.set()
            with pytest.raises(RequestTimeoutError):
                client.map_pairs(wire[:2], timeout=0.05)
            slow.clear()
            # Queued behind the slow run: once this answers, every run
            # has been recorded.
            client.map_pairs(wire[:2])
            stats = client.stats()
    finally:
        server.request_shutdown()
        thread.join(timeout=10)
    assert not thread.is_alive()
    return registry.snapshot(), stats


@pytest.mark.parametrize("metric, kind", ROWS,
                         ids=[metric for metric, _ in ROWS])
def test_row_is_recorded(recorded, metric, kind):
    snapshot, _ = recorded
    names = [name for section, recorded_kind in KINDS.items()
             if recorded_kind == kind for name in snapshot[section]
             if owner(name, kind) == metric]
    assert names, f"no run recorded a {kind} under {metric}"


@pytest.mark.parametrize("section", list(KINDS))
def test_recorded_name_is_documented(recorded, section):
    snapshot, _ = recorded
    kind = KINDS[section]
    assert snapshot[section]
    assert [name for name in snapshot[section]
            if owner(name, kind) is None] == []


def test_top_finds_what_the_runs_recorded(recorded):
    """Each name ``repro top`` looks up resolves in a live reply: the
    engine rows count their ``engine.<name>.run_s`` observations, both
    workers' ``executor.w<N>.chunk_s`` feed the utilization bars, and
    the request-latency table lists the ``serve.`` histograms."""
    _, stats = recorded
    histograms = stats["metrics"]["histograms"]
    text = "\n".join(render_top(stats))
    for engine in ("genpair", "mm2", "longread"):
        runs = histograms[f"engine.{engine}.run_s"]["count"]
        assert runs > 0
        assert re.search(rf"^{engine}\s+{runs:,}\s", text, re.M), engine
    assert re.search(r"^  w0  \[", text, re.M)
    assert re.search(r"^  w1  \[", text, re.M)
    assert re.search(r"^serve\.request_s\.map\s", text, re.M)
    assert re.search(r"^serve\.map_s\.mm2\.paf\s", text, re.M)
