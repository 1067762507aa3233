"""Shared benchmark world: a human-like synthetic genome and datasets.

The benches reproduce the paper's tables/figures at laptop scale: a
repeat-rich ~240kb reference standing in for GRCh38 and three simulated
GIAB-like 2x150bp datasets standing in for the HG002 read sets.  Every
bench prints a paper-vs-measured report; run with ``-s`` to see them, or
read the files written under ``benchmarks/out/``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import GenPairPipeline, SeedMap
from repro.genome import (ErrorModel, ReadSimulator, generate_reference,
                          plant_variants)
from repro.genome.reference import RepeatProfile
from repro.mapper import MinimizerIndex, Mm2LikeMapper

OUT_DIR = Path(__file__).parent / "out"


def emit(name: str, text: str) -> None:
    """Print a bench report and persist it under benchmarks/out/."""
    print("\n" + text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


def record_signature(record):
    """Every observable field of an AlignmentRecord, as a tuple."""
    return (record.query_name, record.chromosome, record.position,
            record.strand, record.mapq, str(record.cigar), record.score,
            record.mate, record.mapped, record.method,
            record.mate_chromosome, record.mate_position,
            record.mate_strand, record.template_length,
            record.proper_pair)


def result_signature(result):
    """Full-field signature of a MappingResult, for bit-identity asserts."""
    return (result.name, result.stage, result.orientation,
            result.joint_score, record_signature(result.record1),
            record_signature(result.record2))


@pytest.fixture(scope="session")
def bench_reference():
    """Repeat-rich reference calibrated for Observation 2 statistics."""
    return generate_reference(np.random.default_rng(101),
                              (160_000, 80_000),
                              repeats=RepeatProfile.human_like())


@pytest.fixture(scope="session")
def bench_donor(bench_reference):
    return plant_variants(np.random.default_rng(103), bench_reference)


@pytest.fixture(scope="session")
def bench_datasets(bench_reference, bench_donor):
    """Three GIAB-like paired datasets (the paper uses three HG002 sets)."""
    datasets = {}
    for index in range(3):
        simulator = ReadSimulator(bench_reference, donor=bench_donor,
                                  error_model=ErrorModel.giab_like(),
                                  seed=200 + index)
        datasets[f"dataset{index + 1}"] = simulator.simulate_pairs(300)
    return datasets


@pytest.fixture(scope="session")
def bench_seedmap(bench_reference):
    return SeedMap.build(bench_reference)


@pytest.fixture(scope="session")
def bench_index(bench_reference):
    return MinimizerIndex.build(bench_reference)


@pytest.fixture(scope="session")
def bench_pipeline_run(bench_reference, bench_seedmap, bench_index,
                       bench_datasets):
    """One shared hybrid GenPair+MM2 run over dataset1 (many benches
    consume its stats)."""
    mapper = Mm2LikeMapper(bench_reference, index=bench_index)
    pipeline = GenPairPipeline(bench_reference, seedmap=bench_seedmap,
                               fallback=mapper)
    results = pipeline.map_pairs(bench_datasets["dataset1"])
    return pipeline, mapper, results
