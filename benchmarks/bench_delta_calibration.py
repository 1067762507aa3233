"""§4.5: calibrating Δ to a sequencing library.

Δ (the paired-adjacency threshold) is the one knob §4.5 leaves
"dataset-defined": `calibrate_delta` estimates it from the library's
insert-size distribution on a mapped sample and retunes the pipeline.
The mapper takes Δ as a fixed setting, so the calibration lives here.

Setup: a 150 kb reference (seed 99), 150 GIAB-like pairs from a
500 +/- 60 library (seed 100), Δ starting at 2000.  Expected: insert
509 +/- 49 from 140 proper pairs, Δ retuned to 554.
"""

import numpy as np
from conftest import emit
from paper.calibration import calibrate_delta

from repro.core import GenPairConfig, GenPairPipeline, SeedMap
from repro.genome import (ErrorModel, PairedEndProfile, ReadSimulator,
                          generate_reference)
from repro.util import format_table


def run_calibration():
    reference = generate_reference(np.random.default_rng(99), (150_000,))
    seedmap = SeedMap.build(reference)
    simulator = ReadSimulator(
        reference, error_model=ErrorModel.giab_like(),
        profile=PairedEndProfile(insert_mean=500.0, insert_sd=60.0),
        seed=100)
    sample = simulator.simulate_pairs(150)
    pipeline = GenPairPipeline(reference, seedmap=seedmap,
                               config=GenPairConfig(delta=2000))
    estimate = calibrate_delta(pipeline, sample)
    return estimate, pipeline.config.delta


def test_delta_calibration(benchmark):
    estimate, delta = benchmark.pedantic(run_calibration, rounds=1,
                                         iterations=1)
    rows = [
        ("insert mean", "500", f"{estimate.mean:.0f}"),
        ("insert sd", "60", f"{estimate.sd:.0f}"),
        ("proper pairs used", "of 150", str(estimate.samples)),
        ("Δ", "2000 (start)", str(delta)),
    ]
    emit("delta_calibration",
         format_table(("", "library", "calibrated"), rows,
                      title="§4.5 — Δ calibration from a mapped sample"))
    assert (round(estimate.mean), round(estimate.sd)) == (509, 49)
    assert estimate.samples == 140
    assert delta == estimate.suggested_delta() == 554
