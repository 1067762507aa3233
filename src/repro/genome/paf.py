"""PAF (Pairwise mApping Format) output, minimap2-flavoured.

PAF is the line-per-alignment interchange format of the long-read
ecosystem: twelve mandatory tab-separated columns (query name/length/
start/end, strand, target name/length/start/end, residue matches,
alignment block length, mapping quality) followed by SAM-style typed
tags.  This module renders the reproduction's alignment records as PAF:
:func:`paf_lines` is the renderer (a batch of results to its lines)
and :data:`PAF` its row of the output table, so a file written by
:class:`~repro.genome.results.ResultLineWriter` and the daemon's wire
lines are the same lines.

Differences from SAM worth knowing:

* PAF has **no header** and **no unmapped rows** — an unmapped record
  renders to nothing (the record count of a PAF file is therefore the
  mapped-record count, not the read count);
* coordinates are 0-based half-open on both query and target;
* the CIGAR travels in the ``cg:Z:`` tag, and the alignment score in
  ``AS:i:`` (matching minimap2's tag vocabulary).
"""

from __future__ import annotations

from typing import List, Sequence

from .results import OutputFormat, result_records

#: CIGAR ops that consume query bases / reference bases / count as
#: aligned block columns, per the PAF column definitions.
_CLIP_OPS = frozenset("SH")
_MATCH_OPS = frozenset("M=")
_BLOCK_OPS = frozenset("MIDX=")


def paf_lines(results: Sequence, reference=None) -> List[str]:
    """A batch of mapping results (or bare records) as PAF lines, one
    per *mapped* record — unmapped records render to nothing.

    ``reference`` supplies the target sequence length column; without
    it the column is 0 (some consumers tolerate that, a
    :class:`~repro.genome.reference.ReferenceGenome` makes it exact).
    """
    target_lengths = ({} if reference is None else
                      {name: reference.length(name)
                       for name in reference.names})
    lines = []
    for result in results:
        for record in result_records(result):
            if not record.mapped:
                continue
            ops = record.cigar.ops
            lead = 0
            for length, op in ops:
                if op not in _CLIP_OPS:
                    break
                lead += length
            tail = 0
            for length, op in reversed(ops):
                if op not in _CLIP_OPS:
                    break
                tail += length
            if record.strand == "-":
                # The mappers align the reverse-complemented read, so the
                # CIGAR (and its clips) are in RC orientation; PAF query
                # coordinates are on the ORIGINAL read strand, which
                # mirrors the clips.
                lead, tail = tail, lead
            query_length = (record.cigar.read_length
                            if record.read_codes is None
                            else len(record.read_codes))
            matches = sum(length for length, op in ops if op in _MATCH_OPS)
            block = sum(length for length, op in ops if op in _BLOCK_OPS)
            lines.append(
                f"{record.query_name}\t{query_length}\t{lead}\t"
                f"{query_length - tail}\t{record.strand}\t"
                f"{record.chromosome}\t"
                f"{target_lengths.get(record.chromosome, 0)}\t"
                f"{record.position}\t{record.reference_end}\t{matches}\t"
                f"{block}\t{record.mapq}\tAS:i:{record.score}\t"
                f"XM:Z:{record.method}\tcg:Z:{record.cigar}")
    return lines


#: PAF's row of the output table: no header.
PAF = OutputFormat("paf", paf_lines)
