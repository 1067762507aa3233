"""Stage-time breakdown of the baseline mapper (Fig 1).

Runs the baseline seed-chain-align mapper over a paired dataset under a
trace capture and reports the percentage of wall-clock time per stage,
summed from the mapper's ``mm2.<stage>`` spans (:mod:`repro.obs.trace`);
mate rescue's DP counts as alignment, the stage the paper puts it in.
The paper's finding — chaining + alignment dominate at 83-85% on
paired-end data — is what motivates the whole design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..genome.reference import ReferenceGenome
from ..genome.simulate import SimulatedPair
from ..mapper.mm2 import Mm2LikeMapper
from ..obs import capture_trace


@dataclass(frozen=True)
class BreakdownReport:
    """Fig 1 data for one dataset."""

    dataset: str
    pairs: int
    percent_by_stage: Dict[str, float]
    total_seconds: float

    @property
    def dp_share_pct(self) -> float:
        """Chaining + alignment share (paper: 83.4-84.9%)."""
        return (self.percent_by_stage.get("chaining", 0.0)
                + self.percent_by_stage.get("alignment", 0.0))


def profile_breakdown(reference: ReferenceGenome,
                      pairs: Sequence[SimulatedPair],
                      dataset: str = "dataset",
                      mapper: Mm2LikeMapper = None) -> BreakdownReport:
    """Map all pairs under a trace and report stage percentages."""
    if mapper is None:
        mapper = Mm2LikeMapper(reference)
    with capture_trace() as tracer:
        for pair in pairs:
            mapper.map_pair(pair.read1.codes, pair.read2.codes, pair.name)
    seconds: Dict[str, float] = {}
    for record in tracer.records:
        layer, _, stage = record.name.partition(".")
        if layer == "mm2":
            stage = "alignment" if stage == "rescue" else stage
            seconds[stage] = seconds.get(stage, 0.0) + record.elapsed_s
    total = sum(seconds.values())
    return BreakdownReport(
        dataset=dataset, pairs=len(pairs),
        percent_by_stage={stage: 100.0 * value / total if total else 0.0
                          for stage, value in seconds.items()},
        total_seconds=total)
