"""Seed-length optimization: the §3.2 design-space exploration.

The paper "determine[s] an optimal seed length that maximizes the exact
match rate" before fixing 50bp.  This module reruns that exploration on
any dataset: for each candidate seed length it measures the Observation-1
quantity (fraction of pairs with at least one exact seed per read at the
truth locus) and recommends the *longest* seed that keeps the rate above
a target — longer seeds mean fewer spurious locations per query
(Observation 2's pressure), shorter seeds survive more errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..genome.reference import ReferenceGenome
from ..genome.sequence import reverse_complement
from ..genome.simulate import SimulatedPair
from .exact_match import _has_exact_seed


@dataclass(frozen=True)
class SeedLengthCurve:
    """Exact-seed rate for each candidate seed length."""

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
        hits = 0
        for pair in pairs:
            ok1 = _has_exact_seed(reference, pair.read1.codes,
                                  pair.read1.chromosome,
                                  pair.read1.ref_start, seed_length)
            if not ok1:
                continue
            rc2 = reverse_complement(pair.read2.codes)
            if _has_exact_seed(reference, rc2, pair.read2.chromosome,
                               pair.read2.ref_start, seed_length):
                hits += 1
        rates[seed_length] = hits / max(1, len(pairs))
    return SeedLengthCurve(rates=rates, pairs=len(pairs))
