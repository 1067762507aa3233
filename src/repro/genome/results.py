"""The one mapping result record and the writer substrate.

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

Output is rendered in batches: each format (SAM, PAF, JSONL) has one
renderer, a function from a batch of results to its lines, and
:func:`render_stream` runs it over a lazy stream
:data:`RENDER_BATCH` results at a time (:func:`result_batches`).
:class:`ResultLineWriter` is the shared incremental file writer behind
the three formats: it writes each batch's lines with one ``write``, so
the file is exactly the rendered lines joined with newlines — the same
lines the daemon streams over its socket, so wire output and file
output cannot drift apart.  The one-record-at-a-time renderers the
batch ones replaced are the test oracles (``tests/oracles/genome.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple, \
    Union

PathLike = Union[str, Path]

#: Results per rendering batch: a file writer writes a batch's lines
#: with one call.
RENDER_BATCH = 256

#: A format's renderer: ``(batch of results, reference) -> lines``.
Renderer = Callable[[Sequence, object], List[str]]


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


def result_batches(results: Iterable) -> Iterator[list]:
    """``results`` as lists of up to :data:`RENDER_BATCH`, pulled as the
    stream yields them."""
    iterator = iter(results)
    while True:
        batch = list(itertools.islice(iterator, RENDER_BATCH))
        if not batch:
            return
        yield batch


def render_stream(render: Renderer, results: Iterable,
                  reference=None) -> Iterator[str]:
    """The lines of a lazy result stream, rendered batch by batch."""
    for batch in result_batches(results):
        yield from render(batch, reference)


class ResultLineWriter:
    """Incremental line-oriented result writer (SAM/PAF/JSONL base).

    Header up front, records as they arrive, ``count``/``drain``/
    ``flush``/context manager — over a subclass-provided batch renderer
    (:attr:`render`).  ``count`` is the number of record lines written
    (header lines excluded).
    """

    #: The format's renderer (a :data:`Renderer`), as a staticmethod.
    render: Renderer

    def __init__(self, path: PathLike, reference=None) -> None:
        self.path = str(path)
        self.reference = reference
        self.count = 0
        self._handle = open(path, "w")
        try:
            for line in self.header_lines():
                self._handle.write(line + "\n")
        except Exception:
            self._handle.close()
            raise

    # -- subclass surface ----------------------------------------------

    def header_lines(self) -> List[str]:
        """Lines written once, before any record (default: none)."""
        return []

    # -- writing -------------------------------------------------------

    def write_results(self, results: Sequence) -> None:
        """Append a batch of mapping results with one write."""
        lines = self.render(results, self.reference)
        if lines:
            self._handle.write("\n".join(lines) + "\n")
            self.count += len(lines)

    def write_result(self, result) -> None:
        """Append one mapping result (however many lines it renders)."""
        self.write_results((result,))

    def drain(self, results: Iterable) -> int:
        """Write a lazy result stream batch by batch as it arrives;
        returns the number of results drained by this call (flushes at
        stream end)."""
        drained = 0
        for batch in result_batches(results):
            self.write_results(batch)
            drained += len(batch)
        self.flush()
        return drained

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "ResultLineWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
