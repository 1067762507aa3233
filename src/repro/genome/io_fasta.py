"""Minimal FASTA/FASTQ reading and writing, plus streaming paired input.

The reproduction generates its own data, but a downstream user will want to
feed real files through the pipeline, and the examples round-trip datasets to
disk.  Only the features the pipeline needs are implemented: plain
(optionally multi-line) FASTA, and four-line FASTQ with dummy qualities.

Every FASTQ record goes through one strict parser, which works a chunk
at a time: ``4 * chunk`` lines are read, their headers, ``+`` lines and
quality lengths checked as whole columns, and every sequence of the
chunk encoded in one call.  Only a chunk that fails a check is walked
record by record, to raise :class:`FastaError` naming the file and the
first bad record (truncated four-line records, blank lines followed by
more records, mismatched ``+`` separator lines, bad headers, bases
outside ``ACGTN``).  :func:`read_fastq` is its flat form.  Paired input
goes through :func:`iter_pairs_chunked` (or its flat wrapper
:func:`iter_pairs`): the two FASTQ files are walked in lockstep in
O(chunk) memory, R1/R2 record names are checked for agreement, and an
unequal pair of files raises instead of silently dropping the tail the
way ``zip`` would.  Single-read input (long-read workloads) goes through
:func:`iter_reads_chunked` / :func:`iter_reads`.  The record-by-record
loop the chunked parser replaced is the test oracle
(``tests/oracles/genome.py``).
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Tuple, Union)

import numpy as np

from .reference import ReferenceGenome
from .sequence import SequenceError, decode, encode, encode_many

PathLike = Union[str, Path]
OptionalChunk = Union[int, None]

#: Default pairs per chunk of :func:`iter_pairs_chunked` — matches the
#: pipeline's batched engine granularity a few times over so one chunk
#: amortizes parsing without holding a whole dataset.
DEFAULT_PAIR_CHUNK = 4096


class FastaError(ValueError):
    """Raised for malformed FASTA/FASTQ input."""


def read_fasta(path: PathLike) -> "ReferenceGenome":
    """Read a FASTA file into a :class:`ReferenceGenome`.

    ``N`` bases are accepted and preserved; headers are truncated at the
    first whitespace, matching common mapper behaviour.  Any other base
    (an IUPAC code such as ``R``) raises :class:`FastaError` naming the
    record and the base's 1-based offset in it.
    """
    chromosomes: Dict[str, np.ndarray] = {}
    name = None
    chunks: List[str] = []
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    chromosomes[name] = _encode_record(path, name, chunks)
                name = line[1:].split()[0]
                if not name:
                    raise FastaError("empty FASTA header")
                if name in chromosomes:
                    raise FastaError(f"duplicate sequence name {name!r}")
                chunks = []
            else:
                if name is None:
                    raise FastaError("sequence data before first header")
                chunks.append(line)
    if name is not None:
        chromosomes[name] = _encode_record(path, name, chunks)
    return ReferenceGenome(chromosomes)


def _encode_record(path: PathLike, name: str, lines: List[str]
                   ) -> np.ndarray:
    sequence = "".join(lines)
    try:
        return encode(sequence, allow_n=True)
    except (SequenceError, UnicodeEncodeError):
        offset, bad = next((offset, base) for offset, base
                           in enumerate(sequence, start=1)
                           if base not in "ACGTNacgtn")
        raise FastaError(
            f"FASTA record {name!r} in {path}: invalid base {bad!r} at "
            f"base {offset:,}; only ACGT and N are supported") from None


def write_fasta(path: PathLike, genome: ReferenceGenome,
                line_width: int = 70) -> None:
    """Write a :class:`ReferenceGenome` to a FASTA file."""
    with open(path, "w") as handle:
        for name in genome.names:
            handle.write(f">{name}\n")
            seq = genome.sequence(name)
            for start in range(0, len(seq), line_width):
                handle.write(seq[start:start + line_width] + "\n")


#: Default reads per chunk of :func:`iter_reads_chunked` — long reads
#: are ~30x bigger than short-read pairs, so chunks are smaller than
#: :data:`DEFAULT_PAIR_CHUNK` while still amortizing parsing.
DEFAULT_READ_CHUNK = 512


class _Chunk(NamedTuple):
    """Up to a chunk of consecutive FASTQ records, and the error at the
    record after them (``None``: the chunk is whole, or the file ended)."""

    names: List[str]
    codes: List[np.ndarray]
    error: Optional[FastaError]


def _fastq_chunks(path: PathLike, chunk_size: int) -> Iterator[_Chunk]:
    """The one FASTQ record parser: ``path`` as chunks of at most
    ``chunk_size`` records, the last one carrying the first error, if
    any, and shorter than ``chunk_size`` (empty if the file ends on a
    chunk boundary).

    Each step takes ``4 * chunk_size`` lines and checks them as whole
    columns (headers, ``+`` lines, quality lengths, one encode of every
    sequence); only a chunk that fails a column check is walked record
    by record (:func:`_first_bad_record`) to find where it went wrong.
    """
    before = 0
    with open(path, "rb") as handle:
        while True:
            lines = list(itertools.islice(handle, 4 * chunk_size))
            if not lines:
                yield _Chunk([], [], None)
                return
            stripped = [line.strip() for line in lines]
            chunk = _parse_records(stripped)
            if chunk is None:
                good, error = _first_bad_record(stripped, handle, path,
                                                before)
                chunk = _parse_records(stripped[:4 * good])
                yield _Chunk(chunk.names, chunk.codes, error)
                if error is not None:
                    return
            else:
                yield chunk
            if len(chunk.names) < chunk_size:
                return
            before += chunk_size


def _parse_records(stripped: List[bytes]) -> Optional[_Chunk]:
    """Whole four-line records as a chunk, or ``None`` if any column
    check fails (then :func:`_first_bad_record` says which record)."""
    if len(stripped) % 4:
        return None
    headers, seqs, pluses, quals = (stripped[0::4], stripped[1::4],
                                    stripped[2::4], stripped[3::4])
    if headers and (min(map(len, headers)) < 2
                    or [header[:1] for header in headers].count(b"@")
                    != len(headers)):
        return None
    raw_names = [header[1:].split(None, 1)[0] for header in headers]
    lengths = list(map(len, seqs))
    if lengths != list(map(len, quals)):
        return None
    if pluses.count(b"+") != len(pluses) and not all(
            plus[:1] == b"+" and plus[1:] in (name, header[1:])
            for plus, name, header in zip(pluses, raw_names, headers)
            if plus != b"+"):
        return None
    if not headers:
        return _Chunk([], [], None)
    try:
        names = b" ".join(raw_names).decode("utf-8").split(" ")
        return _Chunk(names, encode_many(seqs, allow_n=True), None)
    except (UnicodeDecodeError, SequenceError):
        return None


def _text(line: bytes) -> str:
    return line.decode("utf-8", "backslashreplace")


def _first_bad_record(stripped: List[bytes], handle, path: PathLike,
                      before: int) -> Tuple[int, Optional[FastaError]]:
    """Walk a chunk that failed a column check record by record:
    ``(good records, the error of the next one)``.  The error is
    ``None`` when the records end in nothing but blank lines, which is a
    clean end of file (``handle`` is read to its end to make sure).
    """
    for good, start in enumerate(range(0, len(stripped), 4)):
        ordinal = before + good + 1
        group = stripped[start:start + 4]
        header, seq, plus, qual = group + [b""] * (4 - len(group))
        if len(header) < 2 or header[:1] != b"@" or len(group) < 4:
            if not (header or seq or plus or qual):
                if any(stripped[start + 4:]) or any(
                        line.strip() for line in handle):
                    return good, FastaError(
                        f"blank lines at record {ordinal} in {path} are "
                        "followed by more lines; only the end of a FASTQ "
                        "file may be blank")
                return good, None
            if len(group) < 4:
                return good, FastaError(
                    f"truncated FASTQ record {ordinal} in {path}: "
                    f"file ended after {len(group)} of its 4 lines; the "
                    "record is incomplete (truncated download?)")
            return good, FastaError(
                f"bad FASTQ header at record {ordinal} in {path}: "
                f"{_text(header)!r}")
        raw_name = header[1:].split(None, 1)[0]
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            return good, FastaError(
                f"FASTQ record {ordinal} in {path}: the name "
                f"{_text(raw_name)!r} is not UTF-8")
        if plus != b"+":
            if not plus.startswith(b"+"):
                return good, FastaError(
                    f"FASTQ record {ordinal} ({name!r}) in {path}: "
                    f"expected a '+' separator line, got {_text(plus)!r}")
            if plus[1:] not in (raw_name, header[1:]):
                return good, FastaError(
                    f"FASTQ record {ordinal} in {path}: '+' "
                    f"separator names {_text(plus[1:])!r} but the header "
                    f"names {name!r}; the file interleaves "
                    "mismatched records")
        if len(qual) != len(seq):
            return good, FastaError(
                f"FASTQ record {ordinal} ({name!r}) in {path}: "
                f"quality length {len(qual)} differs from sequence "
                f"length {len(seq)}")
        try:
            encode(seq, allow_n=True)
        except SequenceError:
            bad = next(base for base in seq
                       if bytes([base]) not in b"ACGTNacgtn")
            return good, FastaError(
                f"FASTQ record {ordinal} ({name!r}) in {path}: invalid "
                f"base {_text(bytes([bad]))!r} in the sequence")
    return len(stripped) // 4, None


def _checked_chunk_size(chunk_size: OptionalChunk, default: int) -> int:
    if chunk_size is None:
        return default
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    return chunk_size


def read_fastq(path: PathLike) -> Iterator[Tuple[str, np.ndarray]]:
    """Yield ``(name, codes)`` records from a four-line FASTQ file.

    A flat view of the one chunked parser under
    :func:`iter_pairs_chunked` and :func:`iter_reads_chunked`.  Lines
    end at ``\\n`` (a ``\\r\\n`` file reads the same), and surrounding
    whitespace is ignored.  Blank lines after the last record are a
    clean end of file; everything else malformed raises
    :class:`FastaError` naming the file and the record's ordinal:

    * a record whose file ends before all four lines are present (how
      many arrived is reported — a truncated download is never silently
      dropped);
    * blank lines followed by more records;
    * a header line not starting with ``@``, a third line not starting
      with ``+``, or a ``+`` line that repeats a *different* name than
      the header's (the file was spliced from mismatched records);
    * quality/sequence length disagreement;
    * a sequence character other than ``ACGTN`` (either case), or a name
      that is not UTF-8.
    """
    for chunk in _fastq_chunks(path, DEFAULT_READ_CHUNK):
        yield from zip(chunk.names, chunk.codes)
        if chunk.error is not None:
            raise chunk.error


def iter_reads_chunked(reads: PathLike,
                       chunk_size: OptionalChunk = DEFAULT_READ_CHUNK
                       ) -> Iterator[List[Tuple[np.ndarray, str]]]:
    """Stream a single-read FASTQ as chunks of ``(codes, name)``.

    The single-read counterpart of :func:`iter_pairs_chunked` (long-read
    and other unpaired workloads): chunks hold at most ``chunk_size``
    reads (``None`` selects :data:`DEFAULT_READ_CHUNK`), so memory stays
    O(chunk) on arbitrarily large inputs.  Records are parsed, and
    malformed ones rejected, as by :func:`read_fastq`.
    """
    chunk_size = _checked_chunk_size(chunk_size, DEFAULT_READ_CHUNK)
    for chunk in _fastq_chunks(reads, chunk_size):
        if chunk.names:
            yield list(zip(chunk.codes, chunk.names))
        if chunk.error is not None:
            raise chunk.error


def iter_reads(reads: PathLike,
               chunk_size: OptionalChunk = DEFAULT_READ_CHUNK
               ) -> Iterator[Tuple[np.ndarray, str]]:
    """Flat, lazy view of :func:`iter_reads_chunked` (one read at a time)."""
    for chunk in iter_reads_chunked(reads, chunk_size=chunk_size):
        yield from chunk


def iter_pairs_chunked(reads1: PathLike, reads2: PathLike,
                       chunk_size: OptionalChunk = DEFAULT_PAIR_CHUNK
                       ) -> Iterator[List[Tuple[np.ndarray, np.ndarray,
                                                str]]]:
    """Stream two paired FASTQ files as chunks of ``(codes1, codes2, name)``.

    Chunks hold at most ``chunk_size`` pairs (``None`` selects
    :data:`DEFAULT_PAIR_CHUNK`), so memory stays O(chunk) on
    arbitrarily large inputs.  Each R1/R2 record pair must agree on
    its base name (mate suffixes ``/1``, ``/2`` stripped; anything else
    differing means the files are out of sync), and the two files must
    hold the same number of records — a shorter file (truncated
    download, mismatched lanes) raises :class:`FastaError` naming the
    offending file rather than silently dropping the unpaired tail.
    Of several problems, the one a pair-by-pair walk (read 1, then
    read 2, then their names) meets first is raised.
    """
    chunk_size = _checked_chunk_size(chunk_size, DEFAULT_PAIR_CHUNK)
    ordinal = 0
    for chunk1, chunk2 in zip(_fastq_chunks(reads1, chunk_size),
                              _fastq_chunks(reads2, chunk_size)):
        bases1 = [name.rsplit("/", 1)[0] for name in chunk1.names]
        bases2 = [name.rsplit("/", 1)[0] for name in chunk2.names]
        paired = min(len(bases1), len(bases2))
        if bases1[:paired] != bases2[:paired]:
            index = next(index for index in range(paired)
                         if bases1[index] != bases2[index])
            raise FastaError(
                f"paired FASTQ name mismatch at record "
                f"{ordinal + index + 1}: {chunk1.names[index]!r} "
                f"({reads1}) vs {chunk2.names[index]!r} ({reads2}); the "
                "files are not in the same read order")
        for chunk in (chunk1, chunk2):
            if len(chunk.names) == paired and chunk.error is not None:
                raise chunk.error
        if len(bases1) != len(bases2):
            shorter, longer = ((reads1, reads2) if paired == len(bases1)
                               else (reads2, reads1))
            raise FastaError(
                f"paired FASTQ files have unequal read counts: "
                f"{shorter} ended after {ordinal + paired} records but "
                f"{longer} has more; refusing to silently drop the "
                "unpaired tail")
        if paired:
            yield list(zip(chunk1.codes, chunk2.codes, bases1))
        ordinal += paired
        if paired < chunk_size:
            return


def iter_pairs(reads1: PathLike, reads2: PathLike,
               chunk_size: OptionalChunk = DEFAULT_PAIR_CHUNK
               ) -> Iterator[Tuple[np.ndarray, np.ndarray, str]]:
    """Flat, lazy view of :func:`iter_pairs_chunked` (one pair at a time)."""
    for chunk in iter_pairs_chunked(reads1, reads2, chunk_size=chunk_size):
        yield from chunk


def write_fastq(path: PathLike,
                records: Iterable[Tuple[str, np.ndarray]],
                quality_char: str = "I") -> int:
    """Write ``(name, codes)`` records as FASTQ; returns the record count."""
    count = 0
    with open(path, "w") as handle:
        for name, codes in records:
            seq = decode(codes)
            handle.write(f"@{name}\n{seq}\n+\n{quality_char * len(seq)}\n")
            count += 1
    return count
