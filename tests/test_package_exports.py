"""Names no caller reads outside their own module are not re-exported
by their package: each stays importable from the module that defines
it, and is neither in the package's ``__all__`` nor one of its
attributes."""

import importlib

import pytest

UNEXPORTED = [
    ("repro.genome", "repro.genome.sam", "sam_header_lines"),
    ("repro.align", "repro.align.banded", "AlignmentStack"),
    ("repro.align", "repro.align.chaining", "ChainColumns"),
    ("repro.obs", "repro.obs.metrics", "Gauge"),
    ("repro.obs", "repro.obs.trace", "SpanRecord"),
    ("repro.obs", "repro.obs.trace", "Tracer"),
    ("repro.variants", "repro.variants.compare", "AccuracyReport"),
    ("repro.variants", "repro.variants.pileup", "ColumnCounts"),
    ("repro.variants", "repro.variants.mapeval", "MapevalReport"),
]


@pytest.mark.parametrize("package, module, name", UNEXPORTED)
def test_the_name_stays_in_its_module_only(package, module, name):
    assert hasattr(importlib.import_module(module), name)
    exported = importlib.import_module(package)
    assert name not in exported.__all__
    assert not hasattr(exported, name)
