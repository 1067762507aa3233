"""Insert-size estimation and automatic Δ calibration.

The paired-adjacency threshold Δ is "dataset-defined" (§4.5): it must
cover the library's insert-size distribution, and a needlessly large Δ
admits more false joint candidates (more filter iterations, more light
alignments).  Real mappers estimate the insert distribution from an
initial sample of confidently-mapped pairs; this module does the same
for the GenPair pipeline.

Robust estimation: the sample is trimmed to its central 90% before
computing mean/sd, so chimeric pairs and mismapped outliers cannot
inflate Δ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..genome.results import MappingResult
from .pipeline import GenPairPipeline, STAGE_UNMAPPED


@dataclass(frozen=True)
class InsertSizeEstimate:
    """Robust summary of the observed insert-size distribution."""

    mean: float
    sd: float
    samples: int
    read_length: int

    def suggested_delta(self, sigmas: float = 4.0) -> int:
        """Δ covering ``sigmas`` standard deviations of start distance.

        Paired-adjacency compares *read starts*, whose distance is
        ``insert - read_length`` for a proper FR pair, so Δ must cover
        that quantity's upper tail.
        """
        start_gap = self.mean - self.read_length
        return max(50, int(np.ceil(start_gap + sigmas * self.sd)))


class InsertSizeEstimator:
    """Accumulates insert sizes from mapped pair results."""

    def __init__(self, read_length: int = 150) -> None:
        self.read_length = read_length
        self._values: List[int] = []

    def add_result(self, result: MappingResult) -> bool:
        """Record one mapped pair; returns whether it was usable."""
        if result.stage == STAGE_UNMAPPED:
            return False
        record = result.record1
        if not record.proper_pair:
            return False
        self._values.append(abs(record.template_length))
        return True

    def add_results(self, results: Sequence[MappingResult]) -> int:
        return sum(self.add_result(result) for result in results)

    def estimate(self, trim_fraction: float = 0.05
                 ) -> Optional[InsertSizeEstimate]:
        """Trimmed mean/sd estimate; ``None`` until enough samples."""
        if len(self._values) < 20:
            return None
        values = np.sort(np.asarray(self._values, dtype=float))
        cut = int(len(values) * trim_fraction)
        core = values[cut:len(values) - cut] if cut else values
        return InsertSizeEstimate(mean=float(core.mean()),
                                  sd=float(core.std()),
                                  samples=len(self._values),
                                  read_length=self.read_length)


def calibrate_delta(pipeline: GenPairPipeline, sample_pairs: Sequence,
                    sigmas: float = 4.0,
                    apply: bool = True) -> Optional[InsertSizeEstimate]:
    """Estimate the library insert distribution and retune Δ.

    Maps ``sample_pairs`` with the pipeline's current configuration,
    estimates the insert distribution from the proper pairs, and (when
    ``apply``) replaces the pipeline's Δ with the suggested value.
    Returns the estimate, or ``None`` when too few pairs mapped.
    """
    read_length = None
    estimator = None
    results = pipeline.map_pairs(sample_pairs)
    for pair, result in zip(sample_pairs, results):
        if read_length is None:
            codes = pair.read1.codes if hasattr(pair, "read1") \
                else pair[0]
            read_length = len(codes)
            estimator = InsertSizeEstimator(read_length=read_length)
        estimator.add_result(result)
    estimate = estimator.estimate() if estimator else None
    if estimate is not None and apply:
        pipeline.config = replace(pipeline.config,
                                  delta=estimate.suggested_delta(sigmas))
    return estimate
