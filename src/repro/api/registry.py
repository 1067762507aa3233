"""The two selectable tables: mapping engines and output formats.

A :class:`~repro.api.MappingConfig` names what it wants —
``engine="mm2"``, ``output_format="paf"`` — and
:class:`~repro.api.Mapper` (or a daemon request) resolves the names
here.  Both tables are closed module-level literals:

* :data:`ENGINES` — the engine classes behind the polymorphic facade:
  ``genpair`` (the paper's paired-end pipeline, the default), ``mm2``
  (the minimizer seed-chain-align baseline with paired-end support),
  and ``longread`` (pseudo-pair Location Voting over single long
  reads).  ``engine_class(name)(facade)`` builds an
  :class:`~repro.api.engines.Engine` sharing the facade's
  reference/SeedMap;
* :data:`OUTPUT_FORMATS` — the writers every engine's results flow
  through: ``sam`` (default), ``paf``, and ``jsonl``.  Each
  :class:`OutputFormat` bundles header/record line renderers with a
  file writer built on the *same* renderers, so daemon wire output is
  byte-identical to file output by construction.

:func:`engine_class` and :func:`output_format` are the lookups; an
unknown name raises :class:`RegistryError` listing the available ones.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Type

from ..genome.jsonl import (JsonlWriter, jsonl_header_lines,
                            jsonl_record_lines)
from ..genome.paf import PafWriter, paf_header_lines, paf_record_lines
from ..genome.results import ResultLineWriter
from ..genome.sam import SamWriter, sam_header_lines, sam_record_lines
from .engines import Engine, GenPairEngine, LongReadEngine, Mm2Engine


class RegistryError(LookupError):
    """An unknown engine or output format name was requested; names
    the available ones."""


class OutputFormat:
    """One named output format: line renderers plus a file writer.

    ``header_lines``/``record_lines`` are the wire form the daemon
    streams; :meth:`open` returns an incremental file writer built on
    the *same* renderers, so a file reassembled from wire lines is
    byte-identical to one written directly.
    """

    def __init__(self, name: str, suffix: str,
                 header: Callable[..., List[str]],
                 records: Callable[..., Iterable[str]],
                 writer: Type[ResultLineWriter]) -> None:
        self.name = name
        self.suffix = suffix
        self._header = header
        self._records = records
        self._writer = writer

    def header_lines(self, reference=None) -> List[str]:
        """Lines written once, before any record (may be empty)."""
        return list(self._header(reference))

    def record_lines(self, results, reference=None) -> Iterable[str]:
        """Lazy record lines for a result stream."""
        return self._records(results, reference)

    def lines(self, results, reference=None,
              header: bool = True) -> Iterator[str]:
        """Wire form: optional header lines, then record lines."""
        if header:
            yield from self.header_lines(reference)
        yield from self.record_lines(results, reference)

    def open(self, path, reference=None) -> ResultLineWriter:
        """An incremental writer (context manager with ``count``/
        ``write_result``/``drain``) for ``path``."""
        return self._writer(path, reference)


#: Mapping engines, selected by ``engine``.
ENGINES: Dict[str, Type[Engine]] = {
    "genpair": GenPairEngine,
    "mm2": Mm2Engine,
    "longread": LongReadEngine,
}

#: Output formats, selected by ``output_format``.
OUTPUT_FORMATS: Dict[str, OutputFormat] = {
    "sam": OutputFormat("sam", ".sam", sam_header_lines,
                        sam_record_lines, SamWriter),
    "paf": OutputFormat("paf", ".paf", paf_header_lines,
                        paf_record_lines, PafWriter),
    "jsonl": OutputFormat("jsonl", ".jsonl", jsonl_header_lines,
                          jsonl_record_lines, JsonlWriter),
}


def _require(kind: str, table: dict, name: str):
    try:
        return table[name]
    except KeyError:
        raise RegistryError(
            f"unknown {kind} {name!r}; available: "
            f"{', '.join(sorted(table))}") from None


def engine_class(name: str) -> Type[Engine]:
    """The :class:`~repro.api.engines.Engine` class named ``name``."""
    return _require("engine", ENGINES, name)


def output_format(name: str) -> OutputFormat:
    """The :class:`OutputFormat` named ``name``."""
    return _require("output format", OUTPUT_FORMATS, name)
