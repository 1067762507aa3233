"""The one mapping result record and the one output table.

:class:`MappingResult` is what every mapping core of the reproduction —
the GenPair pipeline, the baseline ``Mm2LikeMapper`` and the
chunk-voting ``LongReadMapper`` — returns from its chunk call and what
the engines, output writers and the serving daemon pass on untouched: a
named group of one or two alignment records plus the engine/stage
provenance.

:func:`result_records` is the accessor the writers use: a result's
``records``, or a bare :class:`~repro.genome.sam.AlignmentRecord`
wrapped in a tuple (``write_sam(path, records)`` takes records
directly).

Each output format is one :class:`OutputFormat` row — a name, a batch
renderer (results to lines) and a header — defined next to its
renderer (``SAM``, ``PAF``, ``JSONL``).  :func:`line_batches` is the
one rendering loop: the header, then the lines of each
:data:`RENDER_BATCH` results of a lazy stream.  :class:`ResultLineWriter`
writes each of its lists with one ``write`` and the daemon's wire lines
are the same lists flattened, so file and wire output cannot drift
apart.  The one-record-at-a-time renderers the batch ones replaced are
the test oracles (``tests/oracles/genome.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, NamedTuple, \
    Sequence, Tuple, Union

PathLike = Union[str, Path]

#: Results per rendering batch: a file writer writes a batch's lines
#: with one call.
RENDER_BATCH = 256


@dataclass
class MappingResult:
    """One workload item's mapping outcome, engine-agnostic.

    ``records`` holds both mates for paired-end engines and a single
    record for single-read engines; ``engine`` names the registry entry
    that produced it and ``stage`` the engine's own outcome label
    (e.g. the GenPair Fig 10 stage vocabulary, or ``proper_pair`` /
    ``unmapped`` for the baseline mapper).
    """

    name: str
    records: Tuple
    engine: str = ""
    stage: str = ""
    orientation: str = "fr"
    joint_score: int = 0

    @property
    def mapped(self) -> bool:
        return any(record.mapped for record in self.records)

    @property
    def record1(self):
        return self.records[0]

    @property
    def record2(self):
        return self.records[1] if len(self.records) > 1 else None


def result_records(result) -> Tuple:
    """The alignment records of a :class:`MappingResult`, or a bare
    record (an object with a ``cigar``) as a one-tuple."""
    records = getattr(result, "records", None)
    if records is not None:
        return tuple(records)
    if hasattr(result, "cigar"):
        return (result,)
    raise TypeError(
        f"cannot extract alignment records from {type(result).__name__!r}"
    )


def no_header(reference=None) -> List[str]:
    """The header of a format that has none (PAF, JSONL)."""
    return []


class OutputFormat(NamedTuple):
    """One output format: its name, its batch renderer ``(results,
    reference) -> lines`` and its header, a function from the reference
    to the lines written once before any record."""

    name: str
    render: Callable[[Sequence, object], List[str]]
    header: Callable[[object], List[str]] = no_header


def line_batches(fmt: OutputFormat, results: Iterable, reference=None,
                 header: bool = True) -> Iterator[List[str]]:
    """``results`` as lists of ``fmt`` lines: the header lines (when
    ``header``), then the lines of each :data:`RENDER_BATCH` results,
    rendered as the stream yields them."""
    if header:
        yield fmt.header(reference)
    iterator = iter(results)
    while True:
        batch = list(itertools.islice(iterator, RENDER_BATCH))
        if not batch:
            return
        yield fmt.render(batch, reference)


class ResultLineWriter:
    """The incremental result file writer, for any :class:`OutputFormat`.

    Writes the header on open, then each list :func:`line_batches`
    yields with one ``write``.  ``count`` is the number of record lines
    written (header lines excluded).
    """

    def __init__(self, path: PathLike, fmt: OutputFormat,
                 reference=None) -> None:
        self.fmt = fmt
        self.reference = reference
        self.count = 0
        self._handle = open(path, "w")
        try:
            self._write(fmt.header(reference))
        except Exception:
            self._handle.close()
            raise

    def _write(self, lines: List[str]) -> int:
        if lines:
            self._handle.write("\n".join(lines) + "\n")
        return len(lines)

    def write_result(self, result) -> None:
        """Append one mapping result (however many lines it renders)."""
        self.count += self._write(self.fmt.render((result,),
                                                  self.reference))

    def drain(self, results: Iterable) -> int:
        """Write a lazy result stream batch by batch as it arrives;
        returns the number of record lines this call wrote (flushes at
        stream end)."""
        before = self.count
        for lines in line_batches(self.fmt, results, self.reference,
                                  header=False):
            self.count += self._write(lines)
        self._handle.flush()
        return self.count - before

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "ResultLineWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
