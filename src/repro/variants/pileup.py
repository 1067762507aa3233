"""Pileup construction from alignment records.

The accuracy experiments (Table 7) run a variant caller over the BAM
output of each mapper.  This module is the first half of that caller: it
walks every alignment's CIGAR and accumulates, per reference position,
the base observations (for SNP calling) and the anchored indel
observations (for INDEL calling).

A record's ``read_codes`` are the bases its CIGAR walks, as SAM's SEQ
stores them (reverse-complemented on strand ``-``), so the mapped
records of a SAM file (:func:`sam_records`) pile up exactly as the
in-memory records they were written from.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..genome.cigar import Cigar
from ..genome.reference import ReferenceGenome
from ..genome.sam import AlignmentRecord
from ..genome.sequence import decode, encode


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


def _sam_record(line: str, reference: ReferenceGenome
                ) -> Optional[AlignmentRecord]:
    """One SAM line as the mapped record the pileup takes, or ``None``
    for an unmapped read or one without CIGAR or SEQ; ``ValueError``
    says what is malformed."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) < 11:
        raise ValueError(f"{len(fields)} tab-separated columns; a SAM "
                         "record has at least 11")
    for name, column in (("FLAG", 1), ("POS", 3)):
        if not fields[column].isdigit():
            raise ValueError(f"{name} {fields[column]!r} is not a "
                             "non-negative integer")
    flag = int(fields[1])
    if flag & 4 or fields[5] == "*" or fields[9] == "*":
        return None
    cigar = Cigar.parse(fields[5])
    codes = encode(fields[9], allow_n=True)
    if cigar.read_length != len(codes):
        raise ValueError(f"CIGAR {fields[5]} covers {cigar.read_length} "
                         f"read bases but SEQ has {len(codes)}")
    if fields[2] not in reference.chromosomes:
        raise ValueError(f"RNAME {fields[2]!r} is not in the reference")
    return AlignmentRecord(
        query_name=fields[0], chromosome=fields[2],
        position=int(fields[3]) - 1, strand="-" if flag & 16 else "+",
        cigar=cigar, read_codes=codes, mapped=True)


def sam_records(path: Union[str, Path], reference: ReferenceGenome
                ) -> Iterator[AlignmentRecord]:
    """The mapped records of a SAM file (:func:`_sam_record` of each
    record line); a malformed line raises ``ValueError`` prefixed with
    ``<path>:<line>:``."""
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            if line.startswith("@"):
                continue
            try:
                record = _sam_record(line, reference)
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
            if record is not None:
                yield record
