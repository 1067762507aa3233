"""Scalar references for ``repro.genome``: one record, one base, one
line at a time.

* :func:`window_oracle` — :meth:`repro.genome.ReferenceGenome.window`
  one base at a time over the chromosomes, no ``bisect``, no slicing
  arithmetic shared with the method under test.
* :func:`read_fastq_oracle` / :func:`iter_pairs_oracle` — the
  four-``readline`` FASTQ loop and the record-by-record pairing that
  ran under ``src/`` before the chunked parser: what
  :func:`repro.genome.read_fastq`, :func:`~repro.genome.iter_reads_chunked`
  and :func:`~repro.genome.iter_pairs_chunked` must yield, or raise with
  the same message, at every chunk size.
* :func:`sam_line`, :func:`paf_line` and :func:`jsonl_line` — one
  :class:`~repro.genome.AlignmentRecord` rendered on its own, the form
  the batch renderers of the output table's rows (``sam_lines``,
  ``paf_lines``, ``jsonl_lines``) must reproduce byte for byte.

Nothing under ``src/`` imports this module; tests import it as
``oracles.genome``.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from repro.genome import FastaError

_CODES = {"A": 0, "C": 1, "G": 2, "T": 3, "N": 4}


def window_oracle(reference, start, read_length, before, after,
                  min_length=0):
    """``(bases, chromosome, window_start, offset)`` or ``None``: the
    chromosome is the one whose linear region holds the middle of
    ``[start, start + read_length)``; the window is every base of it
    from ``before`` ahead of the span through ``after`` past it."""
    middle = start + read_length // 2
    cursor = 0
    for name in reference.names:
        codes = reference.chromosomes[name]
        if cursor <= middle < cursor + len(codes):
            local = start - cursor
            kept = [position for position in range(len(codes))
                    if local - before <= position
                    < local + read_length + after]
            if len(kept) < min_length:
                return None
            # An empty window still has a place: where the span would
            # have started, cut to the chromosome.
            window_start = kept[0] if kept else max(0, local - before)
            return ([int(codes[position]) for position in kept], name,
                    window_start, local - window_start)
        cursor += len(codes)
    return None


# -- FASTQ -----------------------------------------------------------------

def _text(line: bytes) -> str:
    return line.decode("utf-8", "backslashreplace")


def read_fastq_oracle(path):
    """``(name, codes)`` per record, four ``readline`` calls at a time."""
    ordinal = 0
    with open(path, "rb") as handle:
        readline = handle.readline
        while True:
            line1, line2, line3, line4 = (readline(), readline(),
                                          readline(), readline())
            ordinal += 1
            header = line1.strip()
            seq = line2.strip()
            plus = line3.strip()
            qual = line4.strip()
            if len(header) < 2 or header[:1] != b"@" or not line4:
                if not (header or seq or plus or qual):
                    if any(line.strip() for line in handle):
                        raise FastaError(
                            f"blank lines at record {ordinal} in {path} "
                            "are followed by more lines; only the end of "
                            "a FASTQ file may be blank")
                    return
                if not line4:
                    present = sum(1 for line in (line1, line2, line3)
                                  if line)
                    raise FastaError(
                        f"truncated FASTQ record {ordinal} in {path}: "
                        f"file ended after {present} of its 4 lines; the "
                        "record is incomplete (truncated download?)")
                raise FastaError(
                    f"bad FASTQ header at record {ordinal} in {path}: "
                    f"{_text(header)!r}")
            raw_name = header[1:].split()[0]
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                raise FastaError(
                    f"FASTQ record {ordinal} in {path}: the name "
                    f"{_text(raw_name)!r} is not UTF-8") from None
            if plus != b"+":
                if not plus.startswith(b"+"):
                    raise FastaError(
                        f"FASTQ record {ordinal} ({name!r}) in {path}: "
                        f"expected a '+' separator line, got "
                        f"{_text(plus)!r}")
                if plus[1:] not in (raw_name, header[1:]):
                    raise FastaError(
                        f"FASTQ record {ordinal} in {path}: '+' "
                        f"separator names {_text(plus[1:])!r} but the "
                        f"header names {name!r}; the file interleaves "
                        "mismatched records")
            if len(qual) != len(seq):
                raise FastaError(
                    f"FASTQ record {ordinal} ({name!r}) in {path}: "
                    f"quality length {len(qual)} differs from sequence "
                    f"length {len(seq)}")
            codes = []
            for base in seq:
                letter = chr(base).upper()
                if base >= 128 or letter not in _CODES:
                    raise FastaError(
                        f"FASTQ record {ordinal} ({name!r}) in {path}: "
                        f"invalid base {_text(bytes([base]))!r} in the "
                        "sequence")
                codes.append(_CODES[letter])
            yield name, np.array(codes, dtype=np.uint8)


def iter_pairs_oracle(reads1, reads2):
    """``(codes1, codes2, name)`` per pair, one record of each file at a
    time: read 1, read 2, then their names."""
    ordinal = 0
    for record1, record2 in itertools.zip_longest(
            read_fastq_oracle(reads1), read_fastq_oracle(reads2)):
        if record1 is None or record2 is None:
            shorter, longer = ((reads1, reads2) if record1 is None
                               else (reads2, reads1))
            raise FastaError(
                f"paired FASTQ files have unequal read counts: "
                f"{shorter} ended after {ordinal} records but {longer} "
                "has more; refusing to silently drop the unpaired tail")
        (name1, codes1), (name2, codes2) = record1, record2
        base1 = name1.rsplit("/", 1)[0]
        base2 = name2.rsplit("/", 1)[0]
        if base1 != base2:
            raise FastaError(
                f"paired FASTQ name mismatch at record {ordinal + 1}: "
                f"{name1!r} ({reads1}) vs {name2!r} ({reads2}); the files "
                "are not in the same read order")
        yield codes1, codes2, base1
        ordinal += 1


# -- one record, one line --------------------------------------------------

def _decode(codes) -> str:
    return "".join("ACGTN"[int(code)] for code in codes)


def sam_line(record) -> str:
    """One record as a SAM line."""
    flag = 0
    if not record.mapped:
        flag |= 4
    if record.strand == "-":
        flag |= 16
    if record.mate == 1:
        flag |= 64 | 1
    elif record.mate == 2:
        flag |= 128 | 1
    if record.proper_pair:
        flag |= 2
    if record.mate_strand == "-":
        flag |= 32
    if record.mate_chromosome is None and record.mate:
        flag |= 8  # mate unmapped
    if record.mate_chromosome is None:
        rnext, pnext = "*", "0"
    elif record.mate_chromosome == record.chromosome:
        rnext, pnext = "=", str(record.mate_position + 1)
    else:
        rnext = record.mate_chromosome
        pnext = str(record.mate_position + 1)
    seq = (_decode(record.read_codes) if record.read_codes is not None
           else "") or "*"
    fields = [
        record.query_name, str(flag),
        record.chromosome if record.mapped else "*",
        str(record.position + 1 if record.mapped else 0),
        str(record.mapq),
        str(record.cigar) if record.mapped else "*",
        rnext, pnext, str(record.template_length), seq, "*",
        f"AS:i:{record.score}", f"XM:Z:{record.method}",
    ]
    return "\t".join(fields)


def paf_line(record, reference=None):
    """One record as a PAF line, or ``None`` for an unmapped record."""
    if not record.mapped:
        return None
    ops = record.cigar.ops
    lead = 0
    for length, op in ops:
        if op not in "SH":
            break
        lead += length
    tail = 0
    for length, op in reversed(ops):
        if op not in "SH":
            break
        tail += length
    if record.strand == "-":
        lead, tail = tail, lead
    if record.read_codes is not None:
        query_length = len(record.read_codes)
    else:
        query_length = record.cigar.read_length
    matches = sum(length for length, op in ops if op in "M=")
    block = sum(length for length, op in ops if op in "MIDX=")
    target_length = 0
    if reference is not None and record.chromosome in reference.names:
        target_length = reference.length(record.chromosome)
    reference_end = record.position + sum(
        length for length, op in ops if op in "M=XD")
    fields = [
        record.query_name, str(query_length), str(lead),
        str(query_length - tail), record.strand, record.chromosome,
        str(target_length), str(record.position), str(reference_end),
        str(matches), str(block), str(record.mapq),
        f"AS:i:{record.score}", f"XM:Z:{record.method}",
        f"cg:Z:{record.cigar}",
    ]
    return "\t".join(fields)


def jsonl_line(record, result=None) -> str:
    """One record as a JSONL line (``result`` supplies the provenance)."""
    mapped = bool(record.mapped)
    return json.dumps({
        "name": record.query_name,
        "mapped": mapped,
        "chrom": record.chromosome if mapped else None,
        "pos": int(record.position) if mapped else None,
        "strand": record.strand if mapped else None,
        "mapq": int(record.mapq),
        "cigar": str(record.cigar) if mapped else None,
        "score": int(record.score),
        "method": record.method,
        "mate": int(record.mate),
        "proper_pair": bool(record.proper_pair),
        "engine": getattr(result, "engine", "") or None,
        "stage": getattr(result, "stage", "") or None,
    }, separators=(",", ":"))
