"""A simple pileup-based diploid variant caller (freebayes stand-in).

Table 7 compares mappers by downstream variant-calling accuracy; the
caller itself just needs to be *consistent* across mappers for the
comparison to be meaningful.  This caller applies the classic frequency
thresholds: a non-reference allele observed in at least
``min_alt_fraction`` of a position's reads (with minimum depth) is called,
heterozygous below ``hom_fraction`` and homozygous above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..genome.sequence import ALPHABET_SIZE, decode
from ..genome.variants import Variant
from .pileup import Pileup


@dataclass(frozen=True)
class CallerConfig:
    """Thresholds of the diploid frequency caller."""

    min_depth: int = 6
    min_alt_count: int = 3
    min_alt_fraction: float = 0.25
    hom_fraction: float = 0.75


def call_variants(pileup: Pileup,
                  config: Optional[CallerConfig] = None) -> List[Variant]:
    """Call SNPs and INDELs from a pileup; sorted by (chrom, position)."""
    config = config if config is not None else CallerConfig()
    calls: List[Variant] = []
    reference = pileup.reference
    for chromosome in pileup.chromosomes:
        chrom_codes = reference.fetch(chromosome, 0,
                                      reference.length(chromosome))
        for position, column in pileup.columns(chromosome).items():
            if column.depth < config.min_depth:
                continue
            ref_code = int(chrom_codes[position])
            # -- SNPs ----------------------------------------------------
            for code, count in column.base_counts.items():
                # An N read base is no allele.
                if code == ref_code or code >= ALPHABET_SIZE:
                    continue
                fraction = count / column.depth
                if count < config.min_alt_count or \
                        fraction < config.min_alt_fraction:
                    continue
                genotype = "hom" if fraction >= config.hom_fraction \
                    else "het"
                calls.append(Variant(
                    chromosome=chromosome, position=position,
                    ref=decode([ref_code]), alt=decode([code]),
                    genotype=genotype))
            # -- INDELs ---------------------------------------------------
            for (ref_allele, alt_allele), count in \
                    column.indel_counts.items():
                fraction = count / column.depth
                if count < config.min_alt_count or \
                        fraction < config.min_alt_fraction:
                    continue
                genotype = "hom" if fraction >= config.hom_fraction \
                    else "het"
                calls.append(Variant(
                    chromosome=chromosome, position=position,
                    ref=ref_allele, alt=alt_allele, genotype=genotype))
    calls.sort(key=lambda v: (v.chromosome, v.position, v.ref, v.alt))
    return calls
