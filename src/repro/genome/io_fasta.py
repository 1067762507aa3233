"""Minimal FASTA/FASTQ reading and writing, plus streaming paired input.

The reproduction generates its own data, but a downstream user will want to
feed real files through the pipeline, and the examples round-trip datasets to
disk.  Only the features the pipeline needs are implemented: plain
(optionally multi-line) FASTA, and four-line FASTQ with dummy qualities.

Every FASTQ record goes through one strict parser, :func:`read_fastq`:
truncated four-line records, mismatched ``+`` separator lines and bad
headers raise :class:`FastaError` naming the file and the record.
Paired input goes through :func:`iter_pairs_chunked` (or its flat wrapper
:func:`iter_pairs`): the two FASTQ files are walked in lockstep in
O(chunk) memory, R1/R2 record names are checked for agreement, and an
unequal pair of files raises instead of silently dropping the tail the
way ``zip`` would.  Single-read input (long-read workloads) goes through
:func:`iter_reads_chunked` / :func:`iter_reads`.

:func:`read_ahead` overlaps parsing with downstream work: it drives any
iterator from a background thread through a bounded buffer, so the
streaming pipeline's FASTQ reader stays a few chunks ahead of the
mapping workers instead of alternating read / map / read / map.
"""

from __future__ import annotations

import itertools
import queue
import threading
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple, TypeVar, Union

import numpy as np

from .reference import ReferenceGenome
from .sequence import decode, encode

PathLike = Union[str, Path]
OptionalChunk = Union[int, None]
ItemT = TypeVar("ItemT")

#: Default pairs per chunk of :func:`iter_pairs_chunked` — matches the
#: pipeline's batched engine granularity a few times over so one chunk
#: amortizes parsing without holding a whole dataset.
DEFAULT_PAIR_CHUNK = 4096


class FastaError(ValueError):
    """Raised for malformed FASTA/FASTQ input."""


def read_fasta(path: PathLike) -> "ReferenceGenome":
    """Read a FASTA file into a :class:`ReferenceGenome`.

    ``N`` bases are accepted and preserved; headers are truncated at the
    first whitespace, matching common mapper behaviour.
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
                    chromosomes[name] = encode("".join(chunks), allow_n=True)
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
        chromosomes[name] = encode("".join(chunks), allow_n=True)
    return ReferenceGenome(chromosomes)


def write_fasta(path: PathLike, genome: ReferenceGenome,
                line_width: int = 70) -> None:
    """Write a :class:`ReferenceGenome` to a FASTA file."""
    with open(path, "w") as handle:
        for name in genome.names:
            handle.write(f">{name}\n")
            seq = genome.sequence(name)
            for start in range(0, len(seq), line_width):
                handle.write(seq[start:start + line_width] + "\n")


def read_fastq(path: PathLike) -> Iterator[Tuple[str, np.ndarray]]:
    """Yield ``(name, codes)`` records from a four-line FASTQ file.

    The one record parser under :func:`iter_pairs_chunked`,
    :func:`iter_reads_chunked` and direct callers.  Blank lines after
    the last record are a clean end of file; everything else malformed
    raises :class:`FastaError` naming the file and the record's ordinal:

    * a record whose file ends before all four lines are present (how
      many arrived is reported — a truncated download is never silently
      dropped);
    * a header line not starting with ``@``, a third line not starting
      with ``+``, or a ``+`` line that repeats a *different* name than
      the header's (the file was spliced from mismatched records);
    * quality/sequence length disagreement.
    """
    ordinal = 0
    with open(path) as handle:
        readline = handle.readline
        while True:
            line1, line2, line3, line4 = (readline(), readline(),
                                          readline(), readline())
            ordinal += 1
            header = line1.strip()
            seq = line2.strip()
            plus = line3.strip()
            qual = line4.strip()
            if len(header) < 2 or header[0] != "@" or not line4:
                if not (header or seq or plus or qual):
                    return  # end of file, possibly after blank lines
                if not line4:
                    present = sum(1 for line in (line1, line2, line3)
                                  if line)
                    raise FastaError(
                        f"truncated FASTQ record {ordinal} in {path}: "
                        f"file ended after {present} of its 4 lines; the "
                        "record is incomplete (truncated download?)")
                raise FastaError(
                    f"bad FASTQ header at record {ordinal} in {path}: "
                    f"{header!r}")
            name = header[1:].split()[0]
            if plus != "+":
                if not plus.startswith("+"):
                    raise FastaError(
                        f"FASTQ record {ordinal} ({name!r}) in {path}: "
                        f"expected a '+' separator line, got {plus!r}")
                if plus[1:] not in (name, header[1:]):
                    raise FastaError(
                        f"FASTQ record {ordinal} in {path}: '+' "
                        f"separator names {plus[1:]!r} but the header "
                        f"names {name!r}; the file interleaves "
                        "mismatched records")
            if len(qual) != len(seq):
                raise FastaError(
                    f"FASTQ record {ordinal} ({name!r}) in {path}: "
                    f"quality length {len(qual)} differs from sequence "
                    f"length {len(seq)}")
            yield name, encode(seq, allow_n=True)


#: Default reads per chunk of :func:`iter_reads_chunked` — long reads
#: are ~30x bigger than short-read pairs, so chunks are smaller than
#: :data:`DEFAULT_PAIR_CHUNK` while still amortizing parsing.
DEFAULT_READ_CHUNK = 512


def iter_reads_chunked(reads: PathLike,
                       chunk_size: OptionalChunk = DEFAULT_READ_CHUNK
                       ) -> Iterator[List[Tuple[np.ndarray, str]]]:
    """Stream a single-read FASTQ as chunks of ``(codes, name)``.

    The single-read counterpart of :func:`iter_pairs_chunked` (long-read
    and other unpaired workloads): chunks hold at most ``chunk_size``
    reads (``None`` selects :data:`DEFAULT_READ_CHUNK`), so memory stays
    O(chunk) on arbitrarily large inputs.  Records are parsed, and
    malformed ones rejected, by :func:`read_fastq`.
    """
    if chunk_size is None:
        chunk_size = DEFAULT_READ_CHUNK
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    chunk: List[Tuple[np.ndarray, str]] = []
    for name, codes in read_fastq(reads):
        chunk.append((codes, name))
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def iter_reads(reads: PathLike,
               chunk_size: OptionalChunk = DEFAULT_READ_CHUNK
               ) -> Iterator[Tuple[np.ndarray, str]]:
    """Flat, lazy view of :func:`iter_reads_chunked` (one read at a time)."""
    for chunk in iter_reads_chunked(reads, chunk_size=chunk_size):
        yield from chunk


def _pair_name(name1: str, name2: str, ordinal: int,
               reads1: PathLike, reads2: PathLike) -> str:
    """Shared base name of an R1/R2 record pair, validated for agreement.

    Mate suffixes (``/1``, ``/2``) are stripped; anything left differing
    means the two files are out of sync (e.g. one was filtered or
    re-sorted independently), which would mis-pair every later read.
    """
    base1 = name1.rsplit("/", 1)[0]
    base2 = name2.rsplit("/", 1)[0]
    if base1 != base2:
        raise FastaError(
            f"paired FASTQ name mismatch at record {ordinal + 1}: "
            f"{name1!r} ({reads1}) vs {name2!r} ({reads2}); the files "
            "are not in the same read order")
    return base1


def iter_pairs_chunked(reads1: PathLike, reads2: PathLike,
                       chunk_size: OptionalChunk = DEFAULT_PAIR_CHUNK
                       ) -> Iterator[List[Tuple[np.ndarray, np.ndarray,
                                                str]]]:
    """Stream two paired FASTQ files as chunks of ``(codes1, codes2, name)``.

    Chunks hold at most ``chunk_size`` pairs (``None`` selects
    :data:`DEFAULT_PAIR_CHUNK`), so memory stays O(chunk) on
    arbitrarily large inputs.  Each R1/R2 record pair must agree on
    its base name, and the two files must hold the same number of
    records — a shorter file (truncated download, mismatched lanes)
    raises :class:`FastaError` naming the offending file rather than
    silently dropping the unpaired tail.
    """
    if chunk_size is None:
        chunk_size = DEFAULT_PAIR_CHUNK
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    chunk: List[Tuple[np.ndarray, np.ndarray, str]] = []
    ordinal = 0
    for record1, record2 in itertools.zip_longest(read_fastq(reads1),
                                                  read_fastq(reads2)):
        if record1 is None or record2 is None:
            shorter, longer = ((reads1, reads2) if record1 is None
                               else (reads2, reads1))
            raise FastaError(
                f"paired FASTQ files have unequal read counts: "
                f"{shorter} ended after {ordinal} records but {longer} "
                "has more; refusing to silently drop the unpaired tail")
        name1, codes1 = record1
        name2, codes2 = record2
        chunk.append((codes1, codes2,
                      _pair_name(name1, name2, ordinal, reads1, reads2)))
        ordinal += 1
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def iter_pairs(reads1: PathLike, reads2: PathLike,
               chunk_size: OptionalChunk = DEFAULT_PAIR_CHUNK
               ) -> Iterator[Tuple[np.ndarray, np.ndarray, str]]:
    """Flat, lazy view of :func:`iter_pairs_chunked` (one pair at a time)."""
    for chunk in iter_pairs_chunked(reads1, reads2, chunk_size=chunk_size):
        yield from chunk


#: End-of-stream and failure sentinels for :func:`read_ahead`'s buffer.
_READ_AHEAD_DONE = object()


class _ReadAheadFailure:
    """Carries an exception from the prefetch thread to the consumer."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


def read_ahead(iterable: Iterable[ItemT],
               depth: int = 2) -> Iterator[ItemT]:
    """Iterate ``iterable`` through a background prefetch thread.

    Up to ``depth`` items are pulled ahead of the consumer and held in a
    bounded buffer, so producing the next item (e.g. parsing the next
    FASTQ chunk) overlaps with whatever the consumer does with the
    current one (e.g. dispatching it to mapping workers).  Order is
    preserved, exceptions raised by the source re-raise at the
    consumer's ``next()``, and closing the returned generator early
    stops the thread and joins it (bounded: a producer blocked inside
    the source's own I/O is abandoned as a daemon rather than allowed
    to wedge teardown).

    The thread only starts on the first ``next()``, so creating the
    iterator is free (and fork-safe: a worker pool forked before
    iteration begins never races the prefetch thread).
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    buffer: queue.Queue = queue.Queue(maxsize=depth)
    stop = threading.Event()

    def push(item) -> bool:
        while not stop.is_set():
            try:
                buffer.put(item, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def produce() -> None:
        try:
            for item in iterable:
                if not push(item):
                    return
        except BaseException as exc:
            push(_ReadAheadFailure(exc))
            return
        push(_READ_AHEAD_DONE)

    thread = threading.Thread(target=produce, name="repro-read-ahead",
                              daemon=True)
    thread.start()
    try:
        while True:
            item = buffer.get()
            if item is _READ_AHEAD_DONE:
                return
            if isinstance(item, _ReadAheadFailure):
                raise item.exc
            yield item
    finally:
        stop.set()
        # Bounded join: the producer checks ``stop`` between items, but
        # may be parked inside a blocking read of the source (a stalled
        # pipe, a network mount).  A daemon thread stuck there cannot be
        # cancelled — abandon it rather than wedging teardown (it exits
        # on its own at the next item or at interpreter shutdown).
        thread.join(timeout=1.0)


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
