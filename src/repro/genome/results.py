"""The one mapping result record and the writer substrate.

:class:`MappingResult` is what every mapping core of the reproduction —
the GenPair pipeline, the baseline ``Mm2LikeMapper`` and the
chunk-voting ``LongReadMapper`` — returns from its chunk call and what
the engines, output writers, the serving daemon and the variant-calling
post-stage pass on untouched: a named group of one or two alignment
records plus the engine/stage provenance.

:func:`result_records` is the accessor the writers use: a result's
``records``, or a bare :class:`~repro.genome.sam.AlignmentRecord`
wrapped in a tuple (``write_sam(path, records)`` takes records
directly).

:class:`ResultLineWriter` is the shared incremental file writer behind
the three output formats (SAM, PAF, JSONL): subclasses provide the line
renderer, and the base class guarantees the file output is exactly the
rendered lines joined with newlines — the same lines the daemon streams
over its socket, so wire output and file output cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Tuple, Union

PathLike = Union[str, Path]


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
    record (an object that renders itself via ``to_sam_line``) as a
    one-tuple."""
    records = getattr(result, "records", None)
    if records is not None:
        return tuple(records)
    if hasattr(result, "to_sam_line"):
        return (result,)
    raise TypeError(
        f"cannot extract alignment records from {type(result).__name__!r}"
    )


class ResultLineWriter:
    """Incremental line-oriented result writer (SAM/PAF/JSONL base).

    Header up front, records as they arrive, ``count``/``drain``/
    ``flush``/context manager — over a subclass-provided line renderer.
    ``count`` is the number of record lines written (header lines
    excluded).
    """

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

    def result_lines(self, result) -> Iterable[str]:
        """The lines one result renders to (may be empty)."""
        raise NotImplementedError

    # -- writing -------------------------------------------------------

    def write_result(self, result) -> None:
        """Append one mapping result (however many lines it renders)."""
        for line in self.result_lines(result):
            self._handle.write(line + "\n")
            self.count += 1

    def drain(self, results: Iterable) -> int:
        """Write a lazy result stream as it arrives; returns the number
        of results drained by this call (flushes at stream end)."""
        drained = 0
        for result in results:
            self.write_result(result)
            drained += 1
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
