"""The work ledger: what mapping each fixed input set costs, pinned.

Wall time cannot be gated here; the work can, exactly, because every
input is seeded.  The sets are the benchmark's (``perf/inputs.py``),
rebuilt from the same seeds without importing it:

* ``giab`` — the fixed GIAB-like regression set (reference seed 101,
  donor seed 103, reads seed 200), all 300 pairs in the order and with
  the names of benchmark seed 7, through ``genpair`` (full fallback on)
  and through ``mm2``;
* ``clean`` — 2,000 error-free pairs of benchmark seed 7;
* ``long`` — 20 HiFi-like long reads over the ``giab`` reference.

Each is mapped through the facade at chunk sizes 256 and 7, and
``tests/data/work_ledger.json`` holds, per run: the SAM's sha256, every
counter of the engine's stats dataclass (and of the GenPair fallback
mapper's), and the ``align_banded`` calls and DP cells.  A change that
alters the work on purpose regenerates the file in the same diff::

    PYTHONPATH=src python tests/integration/test_work_ledger.py

and the JSON diff is the statement of what moved.  Every entry is
measured once more in two interpreters with different
``PYTHONHASHSEED``s and must still equal the ledger, so no set or hash
order reaches the output.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import Mapper, MappingConfig
from repro.api.engines import stats_dict
from repro.core import SeedMap
from repro.genome import (ErrorModel, ReadSimulator, generate_reference,
                          plant_variants, reverse_complement)
from repro.genome.reference import RepeatProfile

LEDGER = Path(__file__).resolve().parent.parent / "data" / "work_ledger.json"
SEED = 7
CHUNK_SIZES = (256, 7)
READ_LENGTH = 150
#: Every ledger entry, ``set/engine/chunk``.
KEYS = [f"{name}/{engine}/{chunk}"
        for name, engine in (("giab", "genpair"), ("giab", "mm2"),
                             ("clean", "genpair"), ("long", "longread"))
        for chunk in CHUNK_SIZES]


def giab_set():
    """``perf.inputs.giab_dataset(SEED, 300)``: the reference and its
    pairs as ``(read1, read2, name)``."""
    reference = generate_reference(np.random.default_rng(101),
                                   (160_000, 80_000),
                                   repeats=RepeatProfile.human_like())
    donor = plant_variants(np.random.default_rng(103), reference)
    simulated = ReadSimulator(reference, donor=donor,
                              error_model=ErrorModel.giab_like(),
                              seed=200).simulate_pairs(300)
    named = [(pair.read1.codes, pair.read2.codes, f"g{SEED}_{index}")
             for index, pair in enumerate(simulated)]
    order = np.random.default_rng([SEED, 2]).permutation(len(named))
    return reference, [named[index] for index in order]


def clean_set(count=2_000, insert_mean=350.0, insert_sd=35.0):
    """``perf.inputs.clean_dataset(SEED, count)``: error-free FR pairs
    cut straight from a repeat-free reference."""
    rng = np.random.default_rng([SEED, 1])
    reference = generate_reference(rng, (50_000, 30_000), repeats=None)
    names = list(reference.names)
    lengths = np.array([reference.length(name) for name in names])
    picks = rng.choice(len(names), size=count, p=lengths / lengths.sum())
    inserts = np.maximum(2 * READ_LENGTH, np.rint(
        rng.normal(insert_mean, insert_sd, size=count))).astype(int)
    uniform = rng.random(count)
    pairs = []
    for index in range(count):
        chromosome, insert = names[picks[index]], int(inserts[index])
        start = int(uniform[index] * (lengths[picks[index]] - insert))
        pairs.append((reference.fetch(chromosome, start,
                                      start + READ_LENGTH),
                      reverse_complement(reference.fetch(
                          chromosome, start + insert - READ_LENGTH,
                          start + insert)),
                      f"c{SEED}_{index}"))
    return reference, pairs


def long_set(reference):
    reads = ReadSimulator(reference, seed=13).simulate_long_reads(
        20, 1_000, 200, 0.005)
    return [(read.codes, read.name) for read in reads]


@contextmanager
def counting_banded():
    """Count every ``align_banded`` call the mappers make, and its
    cells, by rebinding the name in each module that imported it."""
    import repro.align.banded as banded

    real = banded.align_banded
    tally = {"calls": 0, "cells": 0}

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        tally["calls"] += 1
        tally["cells"] += result.cells
        return result

    holders = [module for name, module in list(sys.modules.items())
               if name.startswith("repro.") and module is not None
               and getattr(module, "align_banded", None) is real]
    for module in holders:
        module.align_banded = counting
    try:
        yield tally
    finally:
        for module in holders:
            module.align_banded = real


def run(reference, seedmap, items, engine, chunk_size) -> dict:
    """One fresh facade mapping ``items``: the ledger entry."""
    mapper = Mapper(reference, seedmap, config=MappingConfig(
        engine=engine, batch_size=chunk_size))
    digest = hashlib.sha256()
    with counting_banded() as banded:
        for line in mapper.lines(mapper.map_stream(items)):
            digest.update(line.encode() + b"\n")
    entry = {"sam_sha256": digest.hexdigest(),
             "stats": stats_dict(mapper.last_stats),
             "align_banded": banded}
    fallback = getattr(mapper.engine(engine).core, "fallback", None)
    if fallback is not None:
        entry["fallback_stats"] = stats_dict(fallback.stats)
    return entry


def measure() -> dict:
    """Every ledger entry, keyed ``set/engine/chunk``."""
    giab_reference, giab_pairs = giab_set()
    clean_reference, clean_pairs = clean_set()
    giab_seedmap = SeedMap.build(giab_reference)
    clean_seedmap = SeedMap.build(clean_reference)
    runs = [("giab", "genpair", giab_reference, giab_seedmap, giab_pairs),
            ("giab", "mm2", giab_reference, giab_seedmap, giab_pairs),
            ("clean", "genpair", clean_reference, clean_seedmap,
             clean_pairs),
            ("long", "longread", giab_reference, giab_seedmap,
             long_set(giab_reference))]
    return {f"{name}/{engine}/{chunk}": run(reference, seedmap, items,
                                            engine, chunk)
            for name, engine, reference, seedmap, items in runs
            for chunk in CHUNK_SIZES}


@pytest.fixture(scope="module")
def measured():
    return measure()


@pytest.fixture(scope="module")
def ledger():
    return json.loads(LEDGER.read_text())


def test_ledger_names_every_run(measured, ledger):
    assert sorted(measured) == sorted(ledger)


@pytest.mark.parametrize("key", KEYS)
def test_work_matches_the_ledger(measured, ledger, key):
    assert measured[key] == ledger[key]


def test_chunking_changes_only_how_dp_is_stacked(measured):
    """Output and counters are chunk-invariant; only the number of
    ``align_banded`` calls may follow the chunk size."""
    for key in measured:
        if key.endswith("/256"):
            other = measured[key[:-3] + "7"]
            big = dict(measured[key], align_banded=None)
            assert big == dict(other, align_banded=None)
            assert measured[key]["align_banded"]["cells"] \
                == other["align_banded"]["cells"]


#: Measure every ledger entry in a fresh interpreter; print them as JSON.
_MEASURE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_work_ledger import measure
print(json.dumps(measure()))
"""


@pytest.fixture(scope="module")
def hash_seeded():
    """:func:`measure` in two interpreters, side by side, one with
    ``PYTHONHASHSEED=0`` and one with ``=1``."""
    source = str(Path(repro.__file__).resolve().parents[1])
    children = [subprocess.Popen(
        [sys.executable, "-c", _MEASURE, str(Path(__file__).parent)],
        env=dict(os.environ, PYTHONHASHSEED=seed,
                 PYTHONPATH=os.pathsep.join(
                     [source] + os.environ.get("PYTHONPATH", "").split(
                         os.pathsep))),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for seed in ("0", "1")]
    measured = []
    for child in children:
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        measured.append(json.loads(out))
    return measured


@pytest.mark.parametrize("key", KEYS)
def test_output_does_not_depend_on_the_hash_seed(hash_seeded, ledger, key):
    """``str`` hashing is salted per process, so a set or hash order
    that reached the output or the work would move the digest or a
    counter between two interpreters with different
    ``PYTHONHASHSEED``s."""
    assert [entry[key] for entry in hash_seeded] == [ledger[key]] * 2


if __name__ == "__main__":
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    LEDGER.write_text(json.dumps(measure(), indent=2, sort_keys=True)
                      + "\n")
    print(f"wrote {LEDGER}")
