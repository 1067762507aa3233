"""The measured process: one fresh interpreter per measurement.

``python perf/child.py SPEC.json`` reads its instructions from the spec
file and writes its result to ``spec["result"]``.  Three modes:

* ``setup`` — the part of set-up that follows the index build: import
  the API, ``Mapper.from_index`` (verifying open), ``warm_up()`` and the
  warm pass that forces lazy builds.  The parent times the whole
  process, so interpreter start and imports count as set-up too.
* ``batch`` — the same warm sequence, then FASTQ -> ``map_file`` ->
  ``write`` SAM passes on the one warm ``Mapper``: timed passes over
  the part files, a host-speed probe after each part, until ``seconds``
  have gone by (and at least ``min_passes``), or (``trace``)
  two untraced passes and one traced pass over the traced prefix.
* ``replay`` — the daemon workload's traced pass: the request sequence
  replayed offline through ``Mapper.map`` + ``Mapper.lines``, the two
  calls the daemon's scheduler makes per batch.

Only the public surface is used: ``repro.api.Mapper`` and, for decoding
the wire reads, ``repro.genome.encode``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

if __package__ in (None, ""):  # run as a script: make perf/ and src/ importable
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path[0:1] = [str(_ROOT), str(_ROOT / "src")]

from perf import host, spans  # noqa: E402  (after the path set-up above)

BASE_PASSES = 2


def _open_and_warm(spec):
    started = perf_counter()
    from repro.api import Mapper
    imported = perf_counter()
    mapper = Mapper.from_index(spec["index"], engine=spec["engine"])
    opened = perf_counter()
    mapper.warm_up()
    records = mapper.write(
        mapper.map_file(spec["warm_reads1"], spec["warm_reads2"]),
        spec["warm_out"])
    warmed = perf_counter()
    return mapper, {"import_s": imported - started,
                    "open_s": opened - imported,
                    "warmup_s": warmed - opened, "warm_records": records}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _one_pass(mapper, reads1, reads2, out):
    """FASTQ bytes in to output file closed."""
    started = perf_counter()
    records = mapper.write(mapper.map_file(reads1, reads2), out)
    return perf_counter() - started, records


def _layer_rows(recorder: spans.Recorder) -> dict:
    return {layer: {"calls": totals.calls, "self_s": totals.self_s,
                    "total_s": totals.total_s, "counters": totals.counters}
            for layer, totals in recorder.layers.items()}


def _trace_result(recorder, installed, origin, wall, base) -> dict:
    return {"layers": _layer_rows(recorder), "shims": installed.status,
            "wall_s": wall, "base_s": base,
            "spans": spans.span_dicts(recorder, origin)}


def mode_setup(spec) -> dict:
    mapper, timings = _open_and_warm(spec)
    mapper.close()
    return timings


def mode_batch(spec) -> dict:
    mapper, timings = _open_and_warm(spec)
    with mapper:
        if spec["trace"]:
            result = _traced_pass(mapper, spec)
        else:
            result = _timed_passes(mapper, spec)
    result["setup"] = timings
    return result


def _timed_passes(mapper, spec) -> dict:
    """A pass maps every part file, FASTQ bytes in to output file closed,
    with a host-speed probe after each; ``scaled_s`` sums the parts'
    times, each divided by the factor of the probes around it."""
    passes = []
    deadline = perf_counter() + spec["seconds"]
    before = host.probe()
    while len(passes) < spec["min_passes"] or perf_counter() < deadline:
        seconds = scaled = 0.0
        records, stats = 0, {}
        for (reads1, reads2), out in zip(spec["parts"], spec["outs"]):
            part_s, part_records = _one_pass(mapper, reads1, reads2, out)
            after = host.probe()
            seconds += part_s
            scaled += part_s / host.factor(before, after)
            before = after
            records += part_records
            for key, value in dataclasses.asdict(mapper.last_stats).items():
                stats[key] = stats.get(key, 0) + value
        # Hashing stays outside the timed windows.
        digest = hashlib.sha256()
        for out in spec["outs"]:
            digest.update(Path(out).read_bytes())
        passes.append({"s": seconds, "scaled_s": scaled, "records": records,
                       "sha256": digest.hexdigest(), "stats": stats})
    return {"passes": passes}


def _traced_pass(mapper, spec) -> dict:
    reads = spec["trace_reads1"], spec["trace_reads2"]
    base = [_one_pass(mapper, *reads, spec["outs"][0])[0]
            for _ in range(BASE_PASSES)]
    recorder = spans.Recorder()
    with spans.tracing(recorder) as installed:
        origin = perf_counter()
        wall, records = _one_pass(mapper, *reads, spec["outs"][0])
    result = _trace_result(recorder, installed, origin, wall, base)
    result.update(records=records, sha256=_sha256(spec["outs"][0]),
                  stats=dataclasses.asdict(mapper.last_stats))
    return result


def mode_replay(spec) -> dict:
    from repro.genome import encode

    mapper, timings = _open_and_warm(spec)
    pool = [(encode(read1), encode(read2), name)
            for read1, read2, name in json.loads(
                Path(spec["pool"]).read_text())]
    requests = spec["requests"]
    recorder = None

    def replay() -> float:
        started = perf_counter()
        for number, (start, size) in enumerate(requests):
            if recorder is not None:
                recorder.chunk = number + 1
            results = mapper.map(pool[start:start + size])
            lines = list(mapper.lines(results, format="sam", header=False))
            if len(lines) != 2 * size:
                raise RuntimeError(f"request {number}: {len(lines)} lines "
                                   f"for {size} pairs")
        return perf_counter() - started

    with mapper:
        base = [replay() for _ in range(BASE_PASSES)]
        before = dataclasses.asdict(mapper.stats)
        recorder = spans.Recorder()
        with spans.tracing(recorder) as installed:
            origin = perf_counter()
            wall = replay()
        after = dataclasses.asdict(mapper.stats)
    result = _trace_result(recorder, installed, origin, wall, base)
    result.update(stats={key: after[key] - before[key] for key in after},
                  setup=timings)
    return result


MODES = {"setup": mode_setup, "batch": mode_batch, "replay": mode_replay}


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    result = MODES[spec["mode"]](spec)
    # Linux reports ru_maxrss in KiB.
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
