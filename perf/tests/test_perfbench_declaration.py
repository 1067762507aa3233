"""``BENCHMARK.json`` loads into the catalog and fits the limits the
driver enforces before it runs anything."""

import json
import re

from perf import catalog

DECLARED = json.loads(catalog.DECLARATION.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_keys_command_and_paths():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["command"] == ["python3", "perf/run.py"]
    assert DECLARED["paths"] == ["perf"]
    assert 1 <= DECLARED["run_seconds"] <= 60


def test_every_declared_workload_has_a_shape_and_every_layer_a_prediction():
    loaded = catalog.load()
    assert [w.name for w in loaded.workloads] == list(catalog.SHAPES)
    assert all(metric.moves for metric in loaded.per_layer)
    assert set(catalog.MOVES) == {m.name for m in loaded.per_layer}


def test_names_units_and_bounds_fit_the_driver_limits():
    loaded = catalog.load()
    metrics = loaded.end_to_end + loaded.per_layer
    names = [w.name for w in loaded.workloads] + [m.name for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(metric.unit) for metric in metrics)
    assert all(metric.better in ("lower", "higher") for metric in metrics)
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in loaded.workloads)
    assert 2 <= len(loaded.workloads) <= 8
    assert 1 <= len(loaded.end_to_end) <= 16
    assert 1 <= len(loaded.per_layer) <= 128
    setup = next(m for m in loaded.end_to_end if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in loaded.end_to_end) <= 0.25
