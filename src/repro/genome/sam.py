"""SAM-like alignment records and a minimal writer.

Both the GenPair pipeline and the baseline mapper emit
:class:`AlignmentRecord` objects; the variant-calling substrate consumes
them, and the examples can serialize them to a SAM-flavoured text file.
Only the subset of SAM that the reproduction needs is modelled.

:func:`sam_lines` is the SAM renderer — a batch of results to its
lines, one :meth:`AlignmentRecord.to_sam_line` per record — and
:data:`SAM` its row of the output table; :class:`SamWriter` is the
result writer bound to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cigar import Cigar
from .reference import ReferenceGenome
from .results import (OutputFormat, PathLike, ResultLineWriter,
                      result_records)
from .sequence import decode, decode_many

#: FLAG bits of a record's mate number: paired, and first or second.
_MATE_FLAGS = {1: 64 | 1, 2: 128 | 1}

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
    are then meaningless).  ``read_codes`` holds the read in the
    alignment's orientation — reverse-complemented on strand ``-`` —
    which is what the CIGAR walks and SAM's SEQ stores; an unmapped
    record keeps the read as sequenced.
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

    def to_sam_line(self, batch: Optional[SeqBatch] = None,
                    index: int = 0) -> str:
        """This record's SAM line, the per-record half of :func:`sam_lines`;
        SEQ is entry ``index`` of ``batch`` when given (:func:`sam_lines`
        decodes a whole batch at once), else the record's own decoded
        read codes; ``*`` without read codes or for an empty read."""
        if batch is None:
            codes = self.read_codes
            seq = "*" if codes is None else decode(codes) or "*"
        else:
            seq = batch[index]
        mate_chromosome = self.mate_chromosome
        flag = _MATE_FLAGS.get(self.mate, 0)
        if not self.mapped:
            flag |= 4
        if self.strand == "-":
            flag |= 16
        if self.proper_pair:
            flag |= 2
        if self.mate_strand == "-":
            flag |= 32
        if mate_chromosome is None:
            if self.mate:
                flag |= 8  # mate unmapped
            mate_place = "*\t0"
        elif mate_chromosome == self.chromosome:
            mate_place = f"=\t{self.mate_position + 1}"
        else:
            mate_place = f"{mate_chromosome}\t{self.mate_position + 1}"
        if self.mapped:
            place = (f"{self.chromosome}\t{self.position + 1}\t"
                     f"{self.mapq}\t{self.cigar}")
        else:
            place = f"*\t0\t{self.mapq}\t*"
        return (f"{self.query_name}\t{flag}\t{place}\t{mate_place}\t"
                f"{self.template_length}\t{seq}\t*\tAS:i:{self.score}\t"
                f"XM:Z:{self.method}")


#: One placed mate of :func:`mapped_pair`: ``(chromosome, position,
#: strand, cigar, score, read_codes, method)``.  A plain tuple: a
#: ``NamedTuple`` costs five times as much to build, twice per pair.
Mate = Tuple[str, int, str, Cigar, int, Optional[np.ndarray], str]


def mapped_pair(name: str, mapq: int, first: Mate, second: Mate
                ) -> Tuple[AlignmentRecord, AlignmentRecord]:
    """The records of a pair with both mates mapped, each carrying the
    other's placement: ``first`` is read 1, ``second`` read 2.  The pair
    is proper when both are on one chromosome; TLEN is then the span
    from the leftmost start to the rightmost end, negative on the
    record that starts right of its mate."""
    chromosome1, position1, strand1, cigar1, score1, codes1, method1 = first
    chromosome2, position2, strand2, cigar2, score2, codes2, method2 = second
    proper = chromosome1 == chromosome2
    span = (max(position1 + cigar1.reference_length,
                position2 + cigar2.reference_length)
            - min(position1, position2)) if proper else 0
    length1 = span if position1 <= position2 else -span
    length2 = span if position2 <= position1 else -span
    # Positional: keywords cost three times as much per record.
    return (AlignmentRecord(f"{name}/1", chromosome1, position1, strand1,
                            mapq, cigar1, score1, codes1, 1, True, method1,
                            chromosome2, position2, strand2, length1,
                            proper),
            AlignmentRecord(f"{name}/2", chromosome2, position2, strand2,
                            mapq, cigar2, score2, codes2, 2, True, method2,
                            chromosome1, position1, strand1, length2,
                            proper))


def sam_lines(results: Sequence,
              reference: Optional[ReferenceGenome] = None) -> List[str]:
    """A batch of mapping results (or bare records) as SAM record lines,
    one per record: both mates of a pair, the single record of a long
    read.  ``reference`` is unused: it is the signature the three
    formats' renderers share.  The SEQ of every record is decoded with
    one ``translate`` (:class:`SeqBatch`) and each record's
    :meth:`~AlignmentRecord.to_sam_line` reads its slice."""
    records = [record for result in results
               for record in result_records(result)]
    batch = SeqBatch([record.read_codes for record in records])
    return [record.to_sam_line(batch, index)
            for index, record in enumerate(records)]


class SeqBatch:
    """The SEQ fields of a rendering batch: every record's read codes
    decoded with one ``translate`` (:func:`decode_many`) on the first
    lookup, which the first record's
    :meth:`AlignmentRecord.to_sam_line` makes — so the decode is timed
    with the lines it renders.  Entry ``k`` is ``*`` for missing or
    empty codes."""

    __slots__ = ("codes", "seqs")

    def __init__(self, codes: Sequence[Optional[np.ndarray]]) -> None:
        self.codes = codes
        self.seqs: Optional[List[str]] = None

    def __getitem__(self, index: int) -> str:
        if self.seqs is None:
            self.seqs = decode_many(self.codes)
        return self.seqs[index] or "*"


def sam_header_lines(
        reference: Optional[ReferenceGenome] = None) -> List[str]:
    """The SAM header: ``@HD``, then one ``@SQ`` per chromosome of
    ``reference``."""
    lines = ["@HD\tVN:1.6\tSO:unknown"]
    if reference is not None:
        for name in reference.names:
            lines.append(f"@SQ\tSN:{name}\tLN:{reference.length(name)}")
    return lines


#: SAM's row of the output table.
SAM = OutputFormat("sam", sam_lines, sam_header_lines)


class SamWriter(ResultLineWriter):
    """The result writer bound to :data:`SAM`: header up front, records
    as they arrive, in O(1) memory whatever the input size.  Use as a
    context manager::

        with SamWriter("out.sam", reference=reference) as writer:
            writer.drain(pipeline.map_stream(pairs))
    """

    def __init__(self, path: PathLike,
                 reference: Optional[ReferenceGenome] = None) -> None:
        super().__init__(path, SAM, reference)


def write_sam(path: PathLike, records: Iterable[AlignmentRecord],
              reference: Optional[ReferenceGenome] = None) -> int:
    """Write records to a SAM-flavoured file; returns the record count."""
    with SamWriter(path, reference=reference) as writer:
        writer.drain(records)
        return writer.count
