"""The public mapping API: one engine-polymorphic facade.

This package is the supported programmatic surface of the
reproduction.  Every workload — the paired-end GenPair pipeline, the
mm2-like baseline, single-read long-read mapping — and every output
format (SAM, PAF, JSONL) flows through the same objects:

* :class:`MappingConfig` — the ten values a run sets in one validated,
  round-trippable object: the canonical :class:`IndexFingerprint`
  shared with :mod:`repro.index`, ``delta``, the
  ``engine``/``output_format`` workload selection, and execution
  (``batch_size``, ``workers``, ``full_fallback``, ``verify_index``).
  Algorithm parameters live on the core dataclasses
  (``GenPairConfig``, ``MapperConfig``, ``LongReadConfig``), not here;
* :class:`Mapper` — the context-manager facade: construct once from an
  index file or a reference, then call :meth:`~Mapper.map`,
  :meth:`~Mapper.map_file`, and :meth:`~Mapper.write` as often as
  needed, with any registered engine per call; the memory-mapped
  index, lazily-built engine instances, and the forked worker pool are
  owned by the facade and **reused across calls**.  All engines emit
  the common :class:`MappingResult` record, and
  :meth:`~Mapper.map_and_call` chains variant calling as a post-stage;
* :class:`MapServer` / :func:`serve` — the ``repro serve`` daemon: a
  long-running process holding the warm ``Mapper`` and answering
  newline-delimited JSON mapping requests (with per-request
  ``engine``/``format`` selection) over a UNIX socket;
* :class:`Client` — the thin connection object behind ``repro client``.

Hello world::

    from repro.api import Mapper

    with Mapper.from_index("demo.rpix") as mapper:
        results = mapper.map_file("demo_1.fq", "demo_2.fq")
        mapper.write(results, "demo.sam", format="sam")
        print(mapper.last_stats.pairs_total, "pairs mapped")

Engine and output format are selected by name from the two tables of
:mod:`repro.api.registry` (:data:`~repro.api.registry.ENGINES`,
:data:`~repro.api.registry.OUTPUT_FORMATS`)::

    config = MappingConfig(engine="longread", output_format="paf")
    with Mapper.from_index("demo.rpix", config=config) as mapper:
        mapper.write(mapper.map_file("long.fq"), "long.paf")

Attributes resolve lazily (PEP 562) so low-level modules —
``repro.index`` imports the canonical fingerprint from
:mod:`repro.api.config` — can depend on this package without cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

#: Public name -> defining module, relative to this package.
_EXPORTS = {
    "MappingConfig": ".config",
    "MappingConfigError": ".config",
    "IndexFingerprint": ".config",
    "UNSET": ".config",
    "ENGINES": ".registry",
    "OUTPUT_FORMATS": ".registry",
    "OutputFormat": ".registry",
    "output_format": ".registry",
    "RegistryError": ".registry",
    "Engine": ".engines",
    "GenPairEngine": ".engines",
    "LongReadEngine": ".engines",
    "Mm2Engine": ".engines",
    "MappingResult": ".engines",
    "Mapper": ".mapper",
    "MapServer": "..serve",
    "ServeSettings": "..serve",
    "ServerError": "..serve",
    "ServerStats": "..serve",
    "serve": "..serve",
    "Client": ".client",
    "ClientError": ".client",
    "RequestTimeoutError": ".client",
    "ServerBusyError": ".client",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from ..genome.results import MappingResult
    from .client import (Client, ClientError, RequestTimeoutError,
                         ServerBusyError)
    from .config import (UNSET, IndexFingerprint, MappingConfig,
                         MappingConfigError)
    from .engines import (Engine, GenPairEngine, LongReadEngine,
                          Mm2Engine)
    from .mapper import Mapper
    from .registry import (ENGINES, OUTPUT_FORMATS, OutputFormat,
                           RegistryError, output_format)
    from ..serve import (MapServer, ServeSettings, ServerError,
                         ServerStats, serve)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name, __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
