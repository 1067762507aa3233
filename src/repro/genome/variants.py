"""Germline variant planting: build donor haplotypes from a reference.

The accuracy experiments (Table 7, Fig 13) need reads drawn from a *donor*
genome that differs from the reference by a known truth set of SNPs and
INDELs (the role GIAB's HG002 benchmark plays in the paper).  This module
plants variants into a reference and produces:

* a diploid donor — two :class:`Haplotype` objects per genome, each a fully
  materialized mutated sequence plus a coordinate map back to the reference;
* the truth set, as a list of :class:`Variant` records.

Coordinate mapping matters: the read simulator samples positions on the
donor, while mapping accuracy is judged in reference coordinates, so each
haplotype carries a piecewise-linear donor→reference map.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .reference import ReferenceGenome
from .sequence import decode, random_sequence


@dataclass(frozen=True)
class Variant:
    """One truth variant in reference coordinates (0-based).

    ``ref``/``alt`` follow VCF conventions: a SNP has one base in each; an
    insertion/deletion is left-anchored on the preceding reference base.
    ``genotype`` is ``"het"`` (one haplotype) or ``"hom"`` (both).
    """

    chromosome: str
    position: int
    ref: str
    alt: str
    genotype: str = "het"

    @property
    def kind(self) -> str:
        """``"SNP"``, ``"INS"`` or ``"DEL"``."""
        if len(self.ref) == 1 and len(self.alt) == 1:
            return "SNP"
        return "INS" if len(self.alt) > len(self.ref) else "DEL"

    @property
    def key(self) -> Tuple[str, int, str, str]:
        """Identity tuple used when comparing call sets against truth."""
        return (self.chromosome, self.position, self.ref, self.alt)


@dataclass
class Haplotype:
    """One donor haplotype of one chromosome, with a donor→reference map.

    ``donor_breaks[i]`` / ``ref_breaks[i]`` are the donor and reference
    coordinates at the start of the i-th colinear block; within a block the
    map is the identity plus a constant offset.
    """

    chromosome: str
    codes: np.ndarray
    donor_breaks: Sequence[int]
    ref_breaks: Sequence[int]

    def to_reference(self, donor_position: int) -> int:
        """Map a donor coordinate to the corresponding reference coordinate."""
        if not 0 <= donor_position <= len(self.codes):
            raise ValueError(f"donor position {donor_position} out of range")
        index = bisect.bisect_right(self.donor_breaks, donor_position) - 1
        offset = self.ref_breaks[index] - self.donor_breaks[index]
        return donor_position + offset

    def __len__(self) -> int:
        return len(self.codes)


@dataclass
class DiploidDonor:
    """A diploid donor genome: two haplotypes per chromosome + truth set."""

    haplotypes: Dict[str, Tuple[Haplotype, Haplotype]]
    truth: List[Variant]


def plant_variants(
    rng: np.random.Generator,
    reference: ReferenceGenome,
    snp_rate: float = 1e-3,
    indel_rate: float = 2e-4,
    max_indel_length: int = 6,
    hom_fraction: float = 0.4,
) -> DiploidDonor:
    """Plant SNPs and INDELs into ``reference``, building a diploid donor.

    Default rates follow the paper's Mason configuration (§7.8): SNP rate
    1e-3 and INDEL rate 2e-4.  Variant positions are spaced so that edits
    never overlap, which keeps truth comparison unambiguous.
    """
    truth: List[Variant] = []
    haplotypes: Dict[str, Tuple[Haplotype, Haplotype]] = {}
    for name in reference.names:
        ref_codes = reference.fetch(name, 0, reference.length(name))
        plan = _sample_variant_plan(rng, name, ref_codes, snp_rate,
                                    indel_rate, max_indel_length,
                                    hom_fraction)
        truth.extend(plan)
        hap0 = _apply_variants(name, ref_codes,
                               [v for v in plan])  # haplotype 0: all variants
        hap1 = _apply_variants(name, ref_codes,
                               [v for v in plan if v.genotype == "hom"])
        haplotypes[name] = (hap0, hap1)
    return DiploidDonor(haplotypes=haplotypes, truth=truth)


_BASES = "ACGT"


def _sample_variant_plan(rng: np.random.Generator, chromosome: str,
                         ref_codes: np.ndarray, snp_rate: float,
                         indel_rate: float, max_indel_length: int,
                         hom_fraction: float) -> List[Variant]:
    length = len(ref_codes)
    n_snps = int(rng.poisson(snp_rate * length))
    n_indels = int(rng.poisson(indel_rate * length))
    # Reserve a guard band around every variant so edits never overlap.
    guard = max_indel_length + 2
    candidate_sites = np.arange(1, max(2, length - guard), guard)
    n_sites = min(n_snps + n_indels, len(candidate_sites))
    if n_sites == 0:
        return []
    positions = sorted(rng.choice(candidate_sites, size=n_sites,
                                  replace=False).tolist())
    types = np.array([True] * n_snps + [False] * n_indels)[:n_sites]
    rng.shuffle(types)
    variants: List[Variant] = []
    for pos, is_snp in zip(positions, types.tolist()):
        genotype = "hom" if rng.random() < hom_fraction else "het"
        if is_snp:
            ref_base = decode(ref_codes[pos:pos + 1])
            alt_code = (int(ref_codes[pos]) + int(rng.integers(1, 4))) % 4
            variants.append(Variant(chromosome, pos, ref_base,
                                    _BASES[alt_code], genotype))
        else:
            size = int(rng.integers(1, max_indel_length + 1))
            anchor = decode(ref_codes[pos:pos + 1])
            if rng.random() < 0.5:  # insertion
                inserted = decode(random_sequence(rng, size))
                variants.append(Variant(chromosome, pos, anchor,
                                        anchor + inserted, genotype))
            else:  # deletion
                deleted = decode(ref_codes[pos:pos + 1 + size])
                variants.append(Variant(chromosome, pos, deleted,
                                        anchor, genotype))
    return variants


def _apply_variants(chromosome: str, ref_codes: np.ndarray,
                    variants: List[Variant]) -> Haplotype:
    """Materialize one haplotype and its donor→reference coordinate map."""
    from .sequence import encode  # local import avoids a cycle at module load

    pieces: List[np.ndarray] = []
    donor_breaks: List[int] = [0]
    ref_breaks: List[int] = [0]
    ref_cursor = 0
    donor_cursor = 0
    for variant in sorted(variants, key=lambda v: v.position):
        pos = variant.position
        pieces.append(ref_codes[ref_cursor:pos])
        donor_cursor += pos - ref_cursor
        alt_codes = encode(variant.alt)
        pieces.append(alt_codes)
        donor_cursor += len(alt_codes)
        ref_cursor = pos + len(variant.ref)
        donor_breaks.append(donor_cursor)
        ref_breaks.append(ref_cursor)
    pieces.append(ref_codes[ref_cursor:])
    codes = np.concatenate(pieces) if pieces else ref_codes.copy()
    return Haplotype(chromosome=chromosome, codes=codes,
                     donor_breaks=donor_breaks, ref_breaks=ref_breaks)
