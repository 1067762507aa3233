"""The span recorder and the shim installer (``perf/spans.py``)."""

import sys

import repro.api.engines  # noqa: F401  (loads every module a shim targets)
import repro.mapper.mm2  # noqa: F401

from perf import catalog, run, spans


def _module_globals():
    """Identity of every global of every loaded ``repro.*`` module."""
    return {(name, key): id(value)
            for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] == "repro"
            for key, value in list(vars(module).items())}


def _class_attributes():
    seen = {}
    for shim in spans.SHIMS:
        if "." in shim.attr:
            cls_name, method = shim.attr.split(".")
            cls = getattr(sys.modules[shim.module], cls_name)
            seen[shim.target] = (method in vars(cls), id(getattr(cls, method)))
    return seen


def test_install_rebinds_importers_and_remove_restores_every_name():
    import repro.core.pipeline as pipeline
    import repro.align.banded as banded

    before_globals, before_classes = _module_globals(), _class_attributes()
    original = banded.align_banded
    installed = spans.install(spans.Recorder())
    try:
        assert set(installed.status.values()) == {"installed"}
        # ``from ..align.banded import align_banded`` copies are rebound too.
        assert banded.align_banded is not original
        assert pipeline.align_banded is banded.align_banded
        assert _class_attributes() != before_classes
    finally:
        installed.remove()
    assert _module_globals() == before_globals
    assert _class_attributes() == before_classes


def test_tracing_removes_shims_when_the_body_raises():
    import repro.core.pairfilter as pairfilter

    original = pairfilter.filter_adjacent
    try:
        with spans.tracing(spans.Recorder()):
            assert pairfilter.filter_adjacent is not original
            raise KeyError("boom")
    except KeyError:
        pass
    assert pairfilter.filter_adjacent is original


def test_self_time_is_duration_minus_child_spans():
    recorder = spans.Recorder()
    for layer in ("outer", "inner"):
        recorder.totals(layer)
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    recorder.close(inner)
    recorder.close(outer)
    totals = recorder.layers
    assert totals["outer"].calls == totals["inner"].calls == 1
    assert abs(totals["outer"].self_s + totals["inner"].total_s
               - totals["outer"].total_s) < 1e-9
    (inner_id, inner_parent, *_), (outer_id, outer_parent, *_) = recorder.raw
    assert inner_parent == outer_id and outer_parent == 0


def test_generator_shim_yields_every_item_and_counts_chunks():
    recorder = spans.Recorder()
    shim = spans.Shim("genome.io_fasta", "m", "f", spans.GENERATOR,
                      lambda totals, item: totals.add("pairs", len(item)),
                      marks_chunk=True)

    def chunks():
        yield [1, 2]
        yield [3]

    traced = spans._wrap_generator(recorder, shim, chunks)
    assert list(traced()) == [[1, 2], [3]]
    totals = recorder.layers["genome.io_fasta"]
    assert totals.counters == {"pairs": 3}
    assert totals.calls == 3  # two items and the exhausted next()
    assert not recorder._stack()


def test_absent_layer_reports_null_instead_of_failing():
    table = (
        spans.Shim("align.banded", "repro.align.banded", "align_banded_v2"),
        spans.Shim("align.chaining", "repro.no_such_module", "chain_anchors"),
        spans.Shim("core.pairfilter", "repro.core.pairfilter",
                   "filter_adjacent"),
    )
    recorder = spans.Recorder()
    with spans.tracing(recorder, table) as installed:
        status = dict(installed.status)
    assert status == {
        "repro.align.banded.align_banded_v2": "absent",
        "repro.no_such_module.chain_anchors": "absent",
        "repro.core.pairfilter.filter_adjacent": "installed"}
    metrics = run._span_layers(
        {"layers": {}, "shims": status, "wall_s": 1.0, "base_s": [1.0]},
        table)
    for name in ("align.banded.dp_s", "align.banded.cells",
                 "align.banded.mcups", "align.chaining.chain_s"):
        assert metrics[name]["value"] is None
        assert metrics[name]["status"] == "absent"
    assert metrics["core.pairfilter.filter_s"] == {
        "value": 0.0, "status": "not_run"}
    declared = [metric for metric in catalog.load().per_layer
                if metric.name in metrics]
    line = run.driver_line({"correct": True, "attempted": 1, "failed": 0,
                            "metrics": catalog.with_units(metrics, declared)})
    assert '"align.banded.dp_s": {"value": -1, "unit": "s"}' in line
