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
* :data:`OUTPUT_FORMATS` — the formats every engine's results are
  rendered in: ``sam`` (default), ``paf``, and ``jsonl``, each one
  :class:`~repro.genome.results.OutputFormat` row (name, batch
  renderer, header) defined next to its renderer.

:func:`engine_class` and :func:`output_format` are the lookups; an
unknown name raises :class:`RegistryError` listing the available ones.
"""

from __future__ import annotations

from typing import Dict, Type

from ..genome.jsonl import JSONL
from ..genome.paf import PAF
from ..genome.results import OutputFormat
from ..genome.sam import SAM
from .engines import Engine, GenPairEngine, LongReadEngine, Mm2Engine


class RegistryError(LookupError):
    """An unknown engine or output format name was requested; names
    the available ones."""


#: Mapping engines, selected by ``engine``.
ENGINES: Dict[str, Type[Engine]] = {
    "genpair": GenPairEngine,
    "mm2": Mm2Engine,
    "longread": LongReadEngine,
}

#: Output formats, selected by ``output_format``.
OUTPUT_FORMATS: Dict[str, OutputFormat] = {
    fmt.name: fmt for fmt in (SAM, PAF, JSONL)}


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
