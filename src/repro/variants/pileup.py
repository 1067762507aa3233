"""Pileup construction from alignment records.

The accuracy experiments (Table 7) run a variant caller over the BAM
output of each mapper.  This module is the first half of that caller: it
walks every alignment's CIGAR and accumulates, per reference position,
the base observations (for SNP calling) and the anchored indel
observations (for INDEL calling).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..genome.reference import ReferenceGenome
from ..genome.sam import AlignmentRecord
from ..genome.sequence import decode, reverse_complement


@dataclass
class ColumnCounts:
    """Observations at one reference position."""

    depth: int = 0
    base_counts: Dict[int, int] = field(default_factory=dict)
    #: Indel observations anchored at this position: (ref, alt) -> count.
    indel_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def add_base(self, code: int) -> None:
        self.depth += 1
        self.base_counts[code] = self.base_counts.get(code, 0) + 1

    def add_indel(self, ref: str, alt: str) -> None:
        key = (ref, alt)
        self.indel_counts[key] = self.indel_counts.get(key, 0) + 1


class Pileup:
    """Per-chromosome, per-position observation columns."""

    def __init__(self, reference: ReferenceGenome) -> None:
        self.reference = reference
        self._columns: Dict[str, Dict[int, ColumnCounts]] = defaultdict(
            dict)

    def column(self, chromosome: str, position: int) -> ColumnCounts:
        columns = self._columns[chromosome]
        if position not in columns:
            columns[position] = ColumnCounts()
        return columns[position]

    def columns(self, chromosome: str) -> Dict[int, ColumnCounts]:
        """All populated columns of one chromosome."""
        return self._columns[chromosome]

    @property
    def chromosomes(self) -> List[str]:
        return list(self._columns)

    # -- accumulation -------------------------------------------------------

    def add_record(self, record: AlignmentRecord) -> None:
        """Accumulate one mapped alignment into the pileup."""
        if not record.mapped or record.read_codes is None:
            return
        codes = record.read_codes
        if record.strand == "-":
            codes = reverse_complement(codes)
        ref_pos = record.position
        read_pos = 0
        chromosome = record.chromosome
        chrom_len = self.reference.length(chromosome)
        for length, op in record.cigar.ops:
            if op in ("M", "=", "X"):
                for k in range(length):
                    pos = ref_pos + k
                    if 0 <= pos < chrom_len:
                        self.column(chromosome, pos).add_base(
                            int(codes[read_pos + k]))
                ref_pos += length
                read_pos += length
            elif op == "I":
                anchor_pos = ref_pos - 1
                if 0 <= anchor_pos < chrom_len and read_pos >= 1:
                    anchor = decode(self.reference.fetch(
                        chromosome, anchor_pos, anchor_pos + 1))
                    inserted = decode(codes[read_pos:read_pos + length])
                    self.column(chromosome, anchor_pos).add_indel(
                        anchor, anchor + inserted)
                read_pos += length
            elif op == "D":
                anchor_pos = ref_pos - 1
                if 0 <= anchor_pos and ref_pos + length <= chrom_len:
                    ref_span = decode(self.reference.fetch(
                        chromosome, anchor_pos, ref_pos + length))
                    anchor = ref_span[0]
                    self.column(chromosome, anchor_pos).add_indel(
                        ref_span, anchor)
                ref_pos += length
            elif op == "S":
                read_pos += length

    def add_records(self, records: Iterable[AlignmentRecord]) -> int:
        """Accumulate many records; returns how many were used."""
        used = 0
        for record in records:
            if record.mapped and record.read_codes is not None:
                self.add_record(record)
                used += 1
        return used
