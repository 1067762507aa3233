"""Seeded inputs for the workloads, plus the truth sidecar and its scorer.

Two datasets:

* ``clean`` — error-free 2x150 pairs cut straight out of a repeat-free
  reference.  Reference, loci and insert sizes all come from the seed;
  every pair costs the same, so different seeds are the same work.
* ``giab`` — a **fixed regression set**: ``dataset1`` of the legacy
  ``benchmarks/`` (reference seed 101, donor seed 103, reads seed 200,
  300 GIAB-like pairs), the set ROADMAP's layer profile was taken on.
  The seed only permutes the pairs and salts their names.  The cost of
  one of these pairs is heavy-tailed (a mate rescue is ~35 chain
  alignments; a pair inside a repeat tries up to 16 candidates), so
  freshly drawn pairs differ by 15-25% in work from seed to seed —
  measured — on top of the host's own noise.  A fixed set keeps the
  stage populations and DP cell counts exact.

The program under test only ever sees the files written here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.genome import (ErrorModel, ReadSimulator, decode,
                          generate_reference, plant_variants,
                          reverse_complement, write_fasta, write_fastq)
from repro.genome.reference import RepeatProfile

READ_LENGTH = 150
INSERT_MEAN, INSERT_SD = 350.0, 35.0
CLEAN_CHROMOSOMES = (50_000, 30_000)
GIAB_CHROMOSOMES = (160_000, 80_000)
GIAB_REFERENCE_SEED, GIAB_DONOR_SEED, GIAB_READS_SEED = 101, 103, 200
GIAB_POOL = 300
WARM_PAIRS = 16
JUNK_SEED = 3
#: The ``variants/mapeval.py`` rule: right chromosome, within 30 bp.
TOLERANCE = 30


@dataclass(frozen=True)
class Pair:
    """One read pair with the true leftmost coordinate of each mate."""

    name: str
    read1: np.ndarray
    read2: np.ndarray
    chromosome: str
    position1: int
    position2: int


@dataclass(frozen=True)
class Dataset:
    """Paths of one generated input set (all inside the work dir)."""

    reference: Path
    #: The pairs of one pass, in order, as ``(reads 1, reads 2)`` files.
    parts: Tuple[Tuple[Path, Path], ...]
    truth: Path
    pairs: int
    trace_reads1: Path
    trace_reads2: Path
    trace_pairs: int
    warm_reads1: Path
    warm_reads2: Path
    warm_pairs: int


def clean_pairs(reference, count: int, rng: np.random.Generator,
                prefix: str) -> List[Pair]:
    """Error-free FR pairs: read 1 forward at the fragment start, read 2
    the reverse complement of the fragment end.  Cut directly rather than
    through ``ReadSimulator``, whose per-base Python loop would spend
    seconds of every run on 20,000 pairs that have no errors to draw."""
    names = list(reference.names)
    lengths = np.array([reference.length(name) for name in names])
    picks = rng.choice(len(names), size=count, p=lengths / lengths.sum())
    inserts = np.maximum(2 * READ_LENGTH, np.rint(
        rng.normal(INSERT_MEAN, INSERT_SD, size=count))).astype(int)
    uniform = rng.random(count)
    pairs = []
    for index in range(count):
        chromosome = names[picks[index]]
        insert = int(inserts[index])
        start = int(uniform[index] * (lengths[picks[index]] - insert))
        mate = start + insert - READ_LENGTH
        pairs.append(Pair(
            f"{prefix}{index}",
            reference.fetch(chromosome, start, start + READ_LENGTH),
            reverse_complement(reference.fetch(chromosome, mate,
                                               start + insert)),
            chromosome, start, mate))
    return pairs


def junk_pair(rng: np.random.Generator, name: str) -> Pair:
    """A pair of random sequence: no seed of it hits, so the GenPair
    engine sends it to the full fallback and builds that lazily-built
    index during set-up."""
    read1, read2 = rng.integers(0, 4, size=(2, READ_LENGTH), dtype=np.uint8)
    return Pair(name, read1, read2, "*", 0, 0)


def clean_dataset(seed: int, count: int):
    """``(reference, pairs, warm pairs)``."""
    rng = np.random.default_rng([seed, 1])
    reference = generate_reference(rng, CLEAN_CHROMOSOMES, repeats=None)
    pairs = clean_pairs(reference, count, rng, f"c{seed}_")
    return reference, pairs, pairs[:WARM_PAIRS]


def giab_dataset(seed: int, count: int):
    """The first ``count`` pairs of the fixed set, in seeded order.  The
    warm pairs are the set's own first ones whatever the seed: a sample
    of 16 of these pairs differs several-fold in cost, and set-up time
    must not depend on the seed."""
    reference = generate_reference(
        np.random.default_rng(GIAB_REFERENCE_SEED), GIAB_CHROMOSOMES,
        repeats=RepeatProfile.human_like())
    donor = plant_variants(np.random.default_rng(GIAB_DONOR_SEED),
                           reference)
    simulated = ReadSimulator(
        reference, donor=donor, error_model=ErrorModel.giab_like(),
        seed=GIAB_READS_SEED).simulate_pairs(GIAB_POOL)[:count]
    named = [Pair(f"g{seed}_{index}", pair.read1.codes, pair.read2.codes,
                  pair.chromosome, pair.read1.ref_start,
                  pair.read2.ref_start)
             for index, pair in enumerate(simulated)]
    order = np.random.default_rng([seed, 2]).permutation(len(named))
    return reference, [named[index] for index in order], named[:WARM_PAIRS]


GENERATORS = {"clean": clean_dataset, "giab": giab_dataset}


def _write_reads(pairs: List[Pair], reads1: Path, reads2: Path) -> None:
    write_fastq(reads1, ((f"{pair.name}/1", pair.read1) for pair in pairs))
    write_fastq(reads2, ((f"{pair.name}/2", pair.read2) for pair in pairs))


def write_dataset(directory: Path, reference, pairs: List[Pair],
                  warm: List[Pair], parts: int, trace_pairs: int,
                  warm_junk: bool) -> Dataset:
    """Write the reference FASTA, the paired FASTQ (``parts`` nearly
    equal files, the traced prefix and the warm pairs) and the truth
    sidecar."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {stem: directory / f"{stem}" for stem in (
        "ref.fa", "truth.tsv", "trace_1.fq", "trace_2.fq", "warm_1.fq",
        "warm_2.fq")}
    write_fasta(paths["ref.fa"], reference)
    edges = np.linspace(0, len(pairs), parts + 1).astype(int)
    part_paths = []
    for number, (start, end) in enumerate(zip(edges, edges[1:])):
        part_paths.append((directory / f"part{number}_1.fq",
                           directory / f"part{number}_2.fq"))
        _write_reads(pairs[start:end], *part_paths[-1])
    traced = pairs[:trace_pairs]
    _write_reads(traced, paths["trace_1.fq"], paths["trace_2.fq"])
    if warm_junk:
        warm = warm + [junk_pair(np.random.default_rng(JUNK_SEED), "junk")]
    _write_reads(warm, paths["warm_1.fq"], paths["warm_2.fq"])
    with open(paths["truth.tsv"], "w") as handle:
        for pair in pairs:
            handle.write(f"{pair.name}\t{pair.chromosome}\t"
                         f"{pair.position1}\t{pair.position2}\n")
    return Dataset(paths["ref.fa"], tuple(part_paths), paths["truth.tsv"],
                   len(pairs),
                   paths["trace_1.fq"], paths["trace_2.fq"], len(traced),
                   paths["warm_1.fq"], paths["warm_2.fq"], len(warm))


def wire_pairs(pairs: List[Pair]) -> List[List[str]]:
    """Pairs as the daemon's inline payload: ``[read1, read2, name]``."""
    return [[decode(pair.read1), decode(pair.read2), pair.name]
            for pair in pairs]


def load_truth(path: Path) -> Dict[str, Tuple[str, int, int]]:
    truth = {}
    with open(path) as handle:
        for line in handle:
            name, chromosome, position1, position2 = line.split("\t")
            truth[name] = (chromosome, int(position1), int(position2))
    return truth


def score_sam_lines(lines, truth: Dict[str, Tuple[str, int, int]]
                    ) -> Dict[str, float]:
    """Score SAM record lines (QNAME/FLAG/RNAME/POS) against the truth.

    A pair *failed* unless it has exactly two records; a read is correct
    on the true chromosome within :data:`TOLERANCE` of its true start.
    """
    seen: Dict[str, int] = {}
    records = mapped = correct = 0
    for line in lines:
        if line.startswith("@"):
            continue
        qname, flag, rname, position = line.split("\t", 4)[:4]
        records += 1
        name, _, mate = qname.rpartition("/")
        seen[name] = seen.get(name, 0) + 1
        if int(flag) & 4 or name not in truth:
            continue
        mapped += 1
        chromosome, position1, position2 = truth[name]
        true_position = position1 if mate == "1" else position2
        if rname == chromosome and \
                abs(int(position) - 1 - true_position) <= TOLERANCE:
            correct += 1
    reads = 2 * len(truth)
    failed = sum(1 for name in truth if seen.get(name, 0) != 2) \
        + sum(1 for name in seen if name not in truth)
    return {"records": records, "failed_pairs": failed,
            "mapped_pct": 100.0 * mapped / reads,
            "correct_pct": 100.0 * correct / reads,
            "wrong_pct": 100.0 * (mapped - correct) / reads}
