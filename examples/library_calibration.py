"""Calibrating GenPair to a sequencing library.

Δ (the paired-adjacency threshold) is the one knob §4.5 leaves
"dataset-defined": `calibrate_delta` estimates it from the library's
insert-size distribution on a mapped sample and retunes the pipeline.

Run:  python examples/library_calibration.py
"""

import numpy as np

from repro.core import GenPairConfig, GenPairPipeline, SeedMap, \
    calibrate_delta
from repro.genome import (ErrorModel, PairedEndProfile, ReadSimulator,
                          generate_reference)


def main() -> None:
    rng = np.random.default_rng(99)
    reference = generate_reference(rng, (150_000,))
    seedmap = SeedMap.build(reference)

    # A library with an unusual geometry: 500 +/- 60 inserts.
    simulator = ReadSimulator(
        reference, error_model=ErrorModel.giab_like(),
        profile=PairedEndProfile(insert_mean=500.0, insert_sd=60.0),
        seed=100)
    sample = simulator.simulate_pairs(150)

    print("Δ calibration from a mapped sample")
    pipeline = GenPairPipeline(reference, seedmap=seedmap,
                               config=GenPairConfig(delta=2000))
    estimate = calibrate_delta(pipeline, sample)
    print(f"   insert size: {estimate.mean:.0f} +/- {estimate.sd:.0f} "
          f"({estimate.samples} pairs)")
    print(f"   Δ retuned: 2000 -> {pipeline.config.delta}")


if __name__ == "__main__":
    main()
