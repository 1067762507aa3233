"""SAM-like alignment records and a minimal writer.

Both the GenPair pipeline and the baseline mapper emit
:class:`AlignmentRecord` objects; the variant-calling substrate consumes
them, and the examples can serialize them to a SAM-flavoured text file.
Only the subset of SAM that the reproduction needs is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from .cigar import Cigar
from .reference import ReferenceGenome
from .results import ResultLineWriter, result_records
from .sequence import decode

PathLike = Union[str, Path]

#: Marker for how an alignment was produced (tag ``XM`` in SAM output) —
#: lets the experiments split the population into GenPair-handled versus
#: DP-fallback reads (Fig 10).
METHOD_LIGHT = "light"
METHOD_DP = "dp"
METHOD_EXACT = "exact"


@dataclass
class AlignmentRecord:
    """One read-to-reference alignment.

    ``position`` is the 0-based leftmost reference coordinate of the
    alignment.  ``mapped`` is false for unmapped reads (all placement fields
    are then meaningless).
    """

    query_name: str
    chromosome: str = "*"
    position: int = 0
    strand: str = "+"
    mapq: int = 0
    cigar: Cigar = field(default_factory=lambda: Cigar(()))
    score: int = 0
    read_codes: Optional[np.ndarray] = None
    mate: int = 0
    mapped: bool = True
    method: str = METHOD_DP
    #: Mate placement (proper pairs only): chromosome, 0-based position,
    #: strand, and the signed template length (SAM TLEN semantics).
    mate_chromosome: Optional[str] = None
    mate_position: Optional[int] = None
    mate_strand: Optional[str] = None
    template_length: int = 0
    proper_pair: bool = False

    @property
    def reference_end(self) -> int:
        """0-based end (exclusive) of the alignment on the reference."""
        return self.position + self.cigar.reference_length

    def overlaps(self, chromosome: str, start: int, end: int) -> bool:
        """Does this alignment overlap ``[start, end)`` on ``chromosome``?"""
        return (self.mapped and self.chromosome == chromosome
                and self.position < end and self.reference_end > start)

    def set_mate(self, other: "AlignmentRecord") -> None:
        """Record the mate's placement and the signed template length.

        Call once per record of a mapped pair; marks the pair proper when
        both mates are mapped to the same chromosome.
        """
        if not other.mapped:
            return
        self.mate_chromosome = other.chromosome
        self.mate_position = other.position
        self.mate_strand = other.strand
        if self.mapped and self.chromosome == other.chromosome:
            self.proper_pair = True
            left = min(self.position, other.position)
            right = max(self.reference_end, other.reference_end)
            span = right - left
            self.template_length = span if self.position <= \
                other.position else -span

    def to_sam_line(self) -> str:
        """Render as a SAM-flavoured tab-separated line."""
        flag = 0
        if not self.mapped:
            flag |= 4
        if self.strand == "-":
            flag |= 16
        if self.mate == 1:
            flag |= 64 | 1
        elif self.mate == 2:
            flag |= 128 | 1
        if self.proper_pair:
            flag |= 2
        if self.mate_strand == "-":
            flag |= 32
        if self.mate_chromosome is None and self.mate:
            flag |= 8  # mate unmapped
        if self.mate_chromosome is None:
            rnext, pnext = "*", "0"
        elif self.mate_chromosome == self.chromosome:
            rnext, pnext = "=", str(self.mate_position + 1)
        else:
            rnext = self.mate_chromosome
            pnext = str(self.mate_position + 1)
        seq = decode(self.read_codes) if self.read_codes is not None else "*"
        fields = [
            self.query_name, str(flag),
            self.chromosome if self.mapped else "*",
            str(self.position + 1 if self.mapped else 0),
            str(self.mapq),
            str(self.cigar) if self.mapped else "*",
            rnext, pnext, str(self.template_length), seq, "*",
            f"AS:i:{self.score}", f"XM:Z:{self.method}",
        ]
        return "\t".join(fields)


class SamWriter(ResultLineWriter):
    """Incremental SAM writer: header up front, records as they arrive.

    The streaming ``map`` path hands each chunk's results straight here,
    so writing a SAM file needs O(1) memory regardless of input size —
    with a multi-worker stream, :meth:`drain` writes each chunk the
    moment the ordered merge releases it, while later chunks are still
    being mapped.  Use as a context manager::

        with SamWriter("out.sam", reference=reference) as writer:
            writer.drain(pipeline.map_stream(pairs))

    :attr:`count` tracks records written so far.
    """

    def header_lines(self) -> list:
        return sam_header_lines(self.reference)

    def result_lines(self, result) -> Iterable[str]:
        return sam_record_lines((result,))


def write_sam(path: PathLike, records: Iterable[AlignmentRecord],
              reference: Optional[ReferenceGenome] = None) -> int:
    """Write records to a SAM-flavoured file; returns the record count."""
    with SamWriter(path, reference=reference) as writer:
        writer.drain(records)
        return writer.count


def sam_header_lines(
        reference: Optional[ReferenceGenome] = None) -> list:
    """The header lines :class:`SamWriter` writes, without the newlines.

    One definition of the header keeps every output path — the
    incremental writer, the serving daemon's JSON responses, and a
    client reassembling a file from them — byte-identical.
    """
    lines = ["@HD\tVN:1.6\tSO:unknown"]
    if reference is not None:
        for name in reference.names:
            lines.append(f"@SQ\tSN:{name}\tLN:{reference.length(name)}")
    return lines


def sam_record_lines(results: Iterable,
                     reference: Optional[ReferenceGenome] = None
                     ) -> Iterable[str]:
    """Render a stream of mapping results as SAM record lines.

    Lazy: pulls one result at a time, emitting a line per record (both
    mates of a pair, the single record of a long read) — exactly the
    body :meth:`SamWriter.drain` would write.  Accepts
    ``MappingResult``s and bare records alike.  ``reference`` is
    unused: it is the signature the three formats' record renderers
    share.
    """
    for result in results:
        for record in result_records(result):
            yield record.to_sam_line()
