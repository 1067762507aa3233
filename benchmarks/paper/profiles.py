"""The §3 profiling that motivates the design: Fig 1, Fig 2, Obs 1-3.

* Fig 1 — the stage-time breakdown of the baseline mapper, summed from
  its ``mm2.<stage>`` spans (:mod:`repro.obs.trace`); chaining +
  alignment dominate at 83-85% on paired-end data.
* Table 1, Fig 2 and Observation 3 — each read aligned at its
  ground-truth window with full affine DP: the CIGAR classified into the
  simple/complex vocabulary of §3.4, the *minimum* score of each pair
  (Fig 2 plots its CDF), and the fraction of pairs whose edits are
  solely mismatches or one consecutive indel run (paper: 69.9%).
* §3.2 — the fraction of reads that match the reference exactly over
  their full length (paper: 55.7%), and of pairs where *both* reads do
  (paper: 36.8%): the drop that motivates partitioned seeding.
* Observation 1 — the fraction of pairs with at least one exact 50bp
  seed per read (paper: 84.9-86.2%), and the seed-length exploration the
  paper ran before fixing 50bp.
* Observation 2 — the mean number of reference locations per 50bp seed
  (paper: 9.3-9.6), measured through a SeedMap.

Full-read and per-seed exactness are checked against the read's ground-
truth locus (simulated reads carry it), which avoids indexing 150-mers;
a read with sequencing errors matching *elsewhere* exactly is vanishingly
rare, so this matches the index-based definition in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.align.banded import align_banded
from repro.align.scoring import HIGH_QUALITY_THRESHOLD
from repro.core.query import resolve_reads
from repro.core.seeding import seed_offsets
from repro.core.seedmap import SeedMap
from repro.genome.cigar import Cigar
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import reverse_complement
from repro.genome.simulate import SimulatedPair, SimulatedRead
from repro.hashing import DEFAULT_SEED_LENGTH
from repro.mapper.mm2 import Mm2LikeMapper
from repro.obs import capture_trace

from .filters import exact_match_at


# -- Fig 1 ------------------------------------------------------------------


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
    """Map all pairs under a trace and report stage percentages; mate
    rescue's DP counts as alignment, the stage the paper puts it in."""
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


# -- Table 1, Fig 2, Observation 3 -------------------------------------------


@dataclass(frozen=True)
class PairEditRecord:
    """Per-pair outcome: min score and whether the edits are simple."""

    min_score: int
    simple: bool


@dataclass(frozen=True)
class EditPatternReport:
    """Aggregate §3.4 statistics over a dataset."""

    records: Tuple[PairEditRecord, ...]

    @property
    def simple_fraction_pct(self) -> float:
        """Observation 3: % of pairs with only simple edits (paper 69.9%)."""
        if not self.records:
            return 0.0
        simple = sum(1 for r in self.records if r.simple)
        return 100.0 * simple / len(self.records)

    @property
    def above_threshold_pct(self) -> float:
        """% of pairs whose min score clears the §3.4 threshold."""
        if not self.records:
            return 0.0
        above = sum(1 for r in self.records
                    if r.min_score >= HIGH_QUALITY_THRESHOLD)
        return 100.0 * above / len(self.records)

    def score_cdf(self, scores: Sequence[int]
                  ) -> List[Tuple[int, float]]:
        """Fig 2 series: P(min pair score <= s) for each requested s."""
        values = np.array([r.min_score for r in self.records])
        return [(s, float(np.mean(values <= s))) for s in scores]


def _truth_alignment_score(reference: ReferenceGenome, codes: np.ndarray,
                           chromosome: str, start: int,
                           pad: int = 24) -> Tuple[int, Cigar]:
    chrom_len = reference.length(chromosome)
    w_start = max(0, start - pad)
    w_end = min(chrom_len, start + len(codes) + pad)
    window = reference.fetch(chromosome, w_start, w_end)
    result = align_banded(codes, window, diagonal=start - w_start,
                          bandwidth=pad)
    return result.score, result.cigar


def classify_simple(cigar: Cigar) -> bool:
    """Is the edit structure within Light Alignment's vocabulary?"""
    return cigar.classify_edits() in ("exact", "mismatch_only",
                                      "single_indel")


def analyze_edit_patterns(reference: ReferenceGenome,
                          pairs: Sequence[SimulatedPair]
                          ) -> EditPatternReport:
    """Run truth-window DP over all pairs and aggregate §3.4 statistics."""
    records: List[PairEditRecord] = []
    for pair in pairs:
        score1, cigar1 = _truth_alignment_score(
            reference, pair.read1.codes, pair.read1.chromosome,
            pair.read1.ref_start)
        score2, cigar2 = _truth_alignment_score(
            reference, reverse_complement(pair.read2.codes),
            pair.read2.chromosome, pair.read2.ref_start)
        simple = classify_simple(cigar1) and classify_simple(cigar2)
        records.append(PairEditRecord(min_score=min(score1, score2),
                                      simple=simple))
    return EditPatternReport(records=tuple(records))


# -- §3.2 exact matches, Observations 1-2 ------------------------------------


@dataclass(frozen=True)
class ExactMatchReport:
    """Results of exact-match profiling over one dataset."""

    reads_total: int
    reads_exact: int
    pairs_total: int
    pairs_exact: int
    pairs_with_seed_per_read: int

    @property
    def single_end_exact_pct(self) -> float:
        """% of reads exactly matching the reference (paper: 55.7%)."""
        return 100.0 * self.reads_exact / max(1, self.reads_total)

    @property
    def paired_end_exact_pct(self) -> float:
        """% of pairs where both reads match exactly (paper: 36.8%)."""
        return 100.0 * self.pairs_exact / max(1, self.pairs_total)

    @property
    def seed_per_read_pct(self) -> float:
        """Observation 1: >=1 exact seed in each read (paper: ~86%)."""
        return 100.0 * self.pairs_with_seed_per_read / max(
            1, self.pairs_total)


def _has_exact_seed(reference: ReferenceGenome, codes: np.ndarray,
                    chromosome: str, start: int, seed_length: int) -> bool:
    """Observation 1 predicate: any of the three seeds exactly matches
    (bases compared at the truth locus; nothing is hashed)."""
    return any(exact_match_at(reference, codes[offset:offset + seed_length],
                              chromosome, start + offset) is not None
               for offset in seed_offsets(len(codes), seed_length))


def _pair_has_exact_seeds(reference: ReferenceGenome, pair: SimulatedPair,
                          seed_length: int) -> bool:
    """Observation 1 for a pair: an exact seed in each read."""
    read1, read2 = pair.read1, pair.read2
    return (_has_exact_seed(reference, read1.codes, read1.chromosome,
                            read1.ref_start, seed_length)
            and _has_exact_seed(reference, reverse_complement(read2.codes),
                                read2.chromosome, read2.ref_start,
                                seed_length))


def profile_exact_matches(reference: ReferenceGenome,
                          pairs: Sequence[SimulatedPair]
                          ) -> ExactMatchReport:
    """Profile full-read and per-seed exact-match rates over pairs."""
    reads_exact = 0
    pairs_exact = 0
    pairs_with_seed = 0
    for pair in pairs:
        read1 = pair.read1
        read2 = pair.read2
        r1_exact = exact_match_at(reference, read1.codes,
                                  read1.chromosome,
                                  read1.ref_start) is not None
        r2_codes = reverse_complement(read2.codes)
        r2_exact = exact_match_at(reference, r2_codes, read2.chromosome,
                                  read2.ref_start) is not None
        reads_exact += int(r1_exact) + int(r2_exact)
        if r1_exact and r2_exact:
            pairs_exact += 1
        pairs_with_seed += _pair_has_exact_seeds(reference, pair,
                                                 DEFAULT_SEED_LENGTH)
    return ExactMatchReport(reads_total=2 * len(pairs),
                            reads_exact=reads_exact,
                            pairs_total=len(pairs),
                            pairs_exact=pairs_exact,
                            pairs_with_seed_per_read=pairs_with_seed)


@dataclass(frozen=True)
class SeedLocationReport:
    """Observation 2: reference locations per queried seed."""

    seeds_queried: int
    seeds_hit: int
    locations_total: int

    @property
    def mean_locations_per_seed(self) -> float:
        """Mean over seeds with at least one hit (paper: 9.3-9.6)."""
        return self.locations_total / max(1, self.seeds_hit)


def profile_seed_locations(seedmap: SeedMap,
                           reads: Sequence[SimulatedRead]
                           ) -> SeedLocationReport:
    """Measure per-seed location counts through a SeedMap.

    The three numbers are the mapping front-end's own accounting
    (:func:`~repro.core.query.resolve_reads`): Seed Table accesses,
    seeds with a hit, locations fetched.
    """
    results = resolve_reads(seedmap, [read.codes for read in reads],
                            seedmap.seed_length)
    return SeedLocationReport(
        seeds_queried=sum(r.seed_table_accesses for r in results),
        seeds_hit=sum(r.seed_hits for r in results),
        locations_total=sum(r.locations_fetched for r in results))


@dataclass(frozen=True)
class SeedLengthCurve:
    """Exact-seed rate for each candidate seed length.

    The paper "determine[s] an optimal seed length that maximizes the
    exact match rate" before fixing 50bp: longer seeds mean fewer
    spurious locations per query (Observation 2's pressure), shorter
    seeds survive more errors.
    """

    rates: Dict[int, float]  # seed length -> pair rate in [0, 1]
    pairs: int

    def recommend(self, min_rate: float = 0.85) -> int:
        """Longest seed length whose rate stays at or above the target.

        Falls back to the best-rate length when nothing meets the
        target.
        """
        viable = [length for length, rate in self.rates.items()
                  if rate >= min_rate]
        if viable:
            return max(viable)
        return max(self.rates, key=lambda length: self.rates[length])

    def as_rows(self) -> Tuple[Tuple[int, float], ...]:
        """(seed length, rate%) rows, sorted, for reports."""
        return tuple((length, 100.0 * self.rates[length])
                     for length in sorted(self.rates))


def seed_length_curve(reference: ReferenceGenome,
                      pairs: Sequence[SimulatedPair],
                      lengths: Sequence[int] = (25, 30, 40, 50, 60, 75)
                      ) -> SeedLengthCurve:
    """Measure the Observation-1 rate for each candidate seed length."""
    rates: Dict[int, float] = {}
    for seed_length in lengths:
        hits = sum(_pair_has_exact_seeds(reference, pair, seed_length)
                   for pair in pairs)
        rates[seed_length] = hits / max(1, len(pairs))
    return SeedLengthCurve(rates=rates, pairs=len(pairs))
