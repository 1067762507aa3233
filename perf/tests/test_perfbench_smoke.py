"""One ``--smoke`` suite run: every declared metric, by name, with its
unit, from every workload; the deterministic ones repeat exactly."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perf import catalog, serve_load

DECLARED = catalog.load()
END_TO_END, PER_LAYER = DECLARED.end_to_end, DECLARED.per_layer

RUN = Path(__file__).resolve().parents[1] / "run.py"


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", "5", "--out",
         str(out)], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=300)
    assert done.returncode == 0, done.stdout
    return json.loads(out.read_text()), done.stdout


def test_every_declared_metric_is_reported_with_its_unit(record):
    record, _ = record
    assert sorted(record["workloads"]) == sorted(
        workload.name for workload in DECLARED.workloads)
    for name, entry in record["workloads"].items():
        for section, declared in (("end_to_end", END_TO_END),
                                  ("per_layer", PER_LAYER)):
            assert list(entry[section]) == [m.name for m in declared], name
            for metric in declared:
                reported = entry[section][metric.name]
                assert reported["unit"] == metric.unit
                assert reported["value"] is not None, (name, metric.name)
        assert all(value > 0 for value in (
            entry["end_to_end"][m.name]["value"] for m in END_TO_END)), name


def test_output_checks_ran_and_passed(record):
    record, stdout = record
    assert "FAILED" not in stdout
    for name, entry in record["workloads"].items():
        for part in ("timed", "traced"):
            assert entry[part]["correct"] is True, (name, part)
            assert entry[part]["failed"] == 0
            assert all(entry[part]["checks"].values())
        assert entry["per_layer"]["output.failed_ratio"]["value"] == 0
    batch = record["workloads"]["giab_batch"]
    assert len(batch["timed"]["output_sha256"]) == 64
    load = record["workloads"]["serve_small"]["timed"]["load"]
    assert load["clients"] == load["connections"] == 2
    assert load["succeeded"] == load["attempted"] > 0


def test_timings_are_scaled_by_the_host_speed_and_keep_the_raw_figure(record):
    record, _ = record
    for name, entry in record["workloads"].items():
        for metric in ("setup_s", "pairs_per_s", "req_latency_ms_p99"):
            timing = entry["end_to_end"][metric]
            assert timing["raw"] > 0 and timing["n"] >= 1, (name, metric)
            assert 0.3 < timing["value"] / timing["raw"] < 3.0, (name, metric)
    serve = record["workloads"]["serve_small"]
    assert len(serve["timed"]["load"]["host_factors"]) == serve_load.WINDOWS
    assert serve["end_to_end"]["req_latency_ms_p99"]["samples"] \
        == serve["timed"]["load"]["succeeded"]


def test_layers_fire_where_predicted(record):
    record, _ = record
    layers = {name: entry["per_layer"]
              for name, entry in record["workloads"].items()}
    assert layers["clean_batch"]["align.banded.cells"]["value"] == 0
    assert layers["serve_small"]["align.banded.cells"]["value"] == 0
    assert layers["giab_batch"]["align.banded.cells"]["value"] > 0
    assert layers["mm2_batch"]["align.chaining.calls"]["value"] > 0
    assert layers["mm2_batch"]["core.light_align.attempts"]["status"] \
        == "not_run"
    assert layers["serve_small"]["serve.request_ms_mean"]["value"] > 0
    for name in ("clean_batch", "giab_batch", "mm2_batch"):
        assert layers[name]["trace.coverage"]["value"] > 0.8, name
        assert layers[name]["genome.sam.lines"]["value"] == 2 * layers[
            name]["genome.io_fasta.pairs"]["value"]


def test_trace_file_holds_aggregates_and_first_chunk_spans(record):
    record, _ = record
    path = RUN.parents[1] / record["workloads"]["clean_batch"]["traced"][
        "trace_file"]
    trace = json.loads(path.read_text())
    assert set(trace["shims"].values()) == {"installed"}
    assert trace["layers"]["core.light_align"]["calls"] > 0
    spans = trace["first_chunk_spans"]
    ids = {span["id"] for span in spans}
    assert spans and all(span["parent"] in ids | {0} for span in spans)
    assert all(span["end_ms"] >= span["start_ms"] for span in spans)
