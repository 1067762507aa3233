"""``perf/compare.py`` classifies deltas against the fixed bounds."""

import copy
import json

from perf import compare
from perf import catalog
from perf.catalog import plain, timing, with_units

DECLARED = catalog.load()
END_TO_END, PER_LAYER = DECLARED.end_to_end, DECLARED.per_layer
WORKLOADS = DECLARED.workloads


def _record():
    end_to_end = with_units(
        {metric.name: plain(100.0)
         if metric.unit in ("%", "MB")  # measured once a run
         else timing([100.0, 101.0, 99.0, 100.0])
         for metric in END_TO_END}, END_TO_END)
    per_layer = with_units({metric.name: plain(10) for metric in PER_LAYER},
                           PER_LAYER)
    return {"workloads": {workload.name: {
        "end_to_end": copy.deepcopy(end_to_end),
        "per_layer": copy.deepcopy(per_layer)} for workload in WORKLOADS}}


def _verdicts(rows, workload):
    return {name: verdict for where, name, verdict, _ in rows
            if where == workload}


def test_same_record_is_unchanged_everywhere():
    rows = compare.compare_records(_record(), _record())
    assert {verdict for _, _, verdict, _ in rows} == {compare.UNCHANGED}
    assert len(rows) == len(WORKLOADS) * len(END_TO_END)


def test_synthetic_regression_improvement_and_noise():
    base, new = _record(), _record()
    giab = new["workloads"]["giab_batch"]["end_to_end"]
    giab["pairs_per_s"]["value"] = 70.0           # higher is better: -30%
    giab["req_latency_ms_p50"]["value"] = 70.0    # lower is better: -30%
    giab["req_latency_ms_p99"]["value"] = 120.0   # +20%, inside the bound
    giab["peak_rss_mb"]["value"] = 112.0          # +12%, bound is 10%
    giab["setup_s"]["spread"] = 0.40              # noisier than its bound
    giab["req_per_s"]["spread"] = 0.40            # noisy, yet a 2x loss
    giab["req_per_s"]["value"] = 50.0
    layers = new["workloads"]["giab_batch"]["per_layer"]
    layers["align.banded.cells"]["value"] = 11
    layers["align.banded.dp_s"]["value"] = None
    verdicts = _verdicts(compare.compare_records(base, new), "giab_batch")
    assert verdicts["pairs_per_s"] == compare.REGRESSED
    assert verdicts["req_latency_ms_p50"] == compare.IMPROVED
    assert verdicts["req_latency_ms_p99"] == compare.UNCHANGED
    assert verdicts["peak_rss_mb"] == compare.REGRESSED
    assert verdicts["setup_s"] == compare.UNRESOLVED
    assert verdicts["req_per_s"] == compare.REGRESSED
    assert verdicts["align.banded.cells"] == "changed"
    assert verdicts["align.banded.dp_s"] == "changed"
    assert set(_verdicts(compare.compare_records(base, new),
                         "clean_batch").values()) == {compare.UNCHANGED}


def test_exit_code_reports_regressions(tmp_path, capsys):
    base, new = _record(), _record()
    new["workloads"]["mm2_batch"]["end_to_end"]["setup_s"]["value"] = 140.0
    for name, record in (("a.json", base), ("b.json", new)):
        (tmp_path / name).write_text(json.dumps(record))
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 1
    out = capsys.readouterr().out
    assert "mm2_batch" in out and "100 -> 140 s" in out
    assert "1 regressed" in out


def test_sets_compare_by_their_medians(tmp_path):
    slow_spell = _record()
    for metric in slow_spell["workloads"]["serve_small"]["end_to_end"].values():
        if "spread" in metric:
            metric["value"] *= 1.6  # lower-is-better times: one bad run
    slow_spell["workloads"]["serve_small"]["end_to_end"]["pairs_per_s"][
        "value"] = 60.0
    names = []
    for name, record in (("a0", _record()), ("a1", _record()),
                         ("a2", _record()), ("b0", _record()),
                         ("b1", slow_spell), ("b2", _record())):
        (tmp_path / f"{name}.json").write_text(json.dumps(record))
        names.append(str(tmp_path / f"{name}.json"))
    assert compare.main([names[0], names[4]]) == 1   # run against run
    assert compare.main([",".join(names[:3]), ",".join(names[3:])]) == 0
    merged = compare.load_set(",".join(names[3:]))
    setup = merged["workloads"]["serve_small"]["end_to_end"]["setup_s"]
    assert (setup["value"], setup["n"]) == (100.0, 3)
