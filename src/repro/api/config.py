"""The facade's mapping configuration and the canonical index fingerprint.

:class:`MappingConfig` is what a run of the public API sets, eight values:
the index fingerprint (``seed_length``, ``filter_threshold``),
the paper's dataset-defined ``delta`` (§4.5), the ``engine`` and
``output_format`` selectors, and execution (``batch_size``,
``full_fallback``, ``verify_index``).  A config validates itself eagerly
(:meth:`MappingConfig.validate`) and round-trips through plain
dictionaries (:meth:`MappingConfig.to_dict` /
:meth:`MappingConfig.from_dict` — the daemon wire format).

Algorithm parameters are not mirrored here.  Almost all of them are
fixed, as in the paper's hardware: constants of the core modules
(:mod:`repro.core.pipeline`, :mod:`repro.core.longread`,
:mod:`repro.mapper.mm2`, the minimizer ``K``/``W``/``MAX_OCCURRENCES``
of :mod:`repro.mapper`).  The few a caller varies are constructor
arguments of the cores: :class:`~repro.core.pipeline.GenPairConfig`'s
``seed_length``, ``filter_threshold``, ``delta`` and
``score_threshold``, and :class:`~repro.core.longread.LongReadMapper`'s
``seed_length`` and ``delta``.

:class:`IndexFingerprint` is the **single canonical fingerprint** of an
index-compatible configuration: the ``(seed_length, filter_threshold)``
pair a SeedMap was built with.  It is defined once, in
:mod:`repro.core.fingerprint` (below both this package and
``repro.index``, so either can import it without layering cycles), and
re-exported here: :attr:`repro.index.MappingIndex.fingerprint` reads it
from the SeedMap, :meth:`MappingConfig.fingerprint` produces the same
object, and :class:`~repro.api.Mapper` compares the two once, on
construction — so "does this config match that index?" is one
comparison with one definition.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.fingerprint import IndexFingerprint
from ..core.pairfilter import DEFAULT_DELTA
from ..core.seedmap import DEFAULT_FILTER_THRESHOLD

__all__ = ["IndexFingerprint", "MappingConfig", "MappingConfigError"]


class MappingConfigError(ValueError):
    """A :class:`MappingConfig` failed validation, or a config and an
    index disagree on the fingerprint."""


@dataclass(frozen=True)
class MappingConfig:
    """What a mapping run sets, in one validated object: eight values.

    * **fingerprint** — ``seed_length``, ``filter_threshold``: what the
      SeedMap/index must have been built with
      (:meth:`fingerprint`);
    * **dataset** — ``delta``, the paired-adjacency distance the paper
      leaves "dataset-defined" (§4.5);
    * **workload** — ``engine`` names the mapping engine
      (``genpair`` | ``mm2`` | ``longread``), ``output_format`` the
      output writer (``sam`` | ``paf`` | ``jsonl``);
    * **execution** — ``batch_size`` (pairs per chunk of the one
      chunked dataflow; chunk boundaries never change results);
    * **environment** — ``full_fallback`` (map residual pairs with the
      baseline MM2 pipeline) and ``verify_index`` (crc-check arrays on
      index open).

    Every other algorithm parameter is a constant of the selected
    engine's core module, except GenPair's light-alignment
    ``score_threshold`` (:class:`~repro.core.pipeline.GenPairConfig`),
    which a caller varies by constructing the pipeline directly.
    """

    # fingerprint
    seed_length: int = 50
    filter_threshold: Optional[int] = DEFAULT_FILTER_THRESHOLD
    # dataset
    delta: int = DEFAULT_DELTA
    # workload
    engine: str = "genpair"
    output_format: str = "sam"
    # execution
    batch_size: int = 256
    # environment
    full_fallback: bool = True
    verify_index: bool = True

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ----------------------------------------------------

    def validate(self) -> "MappingConfig":
        """Raise :class:`MappingConfigError` listing every bad field."""
        problems: List[str] = []
        for name, minimum, *hint in (
                ("seed_length", 1), ("delta", 1),
                # 0 used to be a valid batch_size: say what replaced it.
                ("batch_size", 1, " (the pair-by-pair engine that 0 "
                                  "selected is gone; 1 gives the same "
                                  "output)")):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < minimum:
                problems.append(f"{name} must be an integer >= {minimum}"
                                f"{''.join(hint)}, got {value!r}")
        if self.filter_threshold is not None and (
                not isinstance(self.filter_threshold, int)
                or isinstance(self.filter_threshold, bool)
                or self.filter_threshold < 1):
            problems.append("filter_threshold must be None (unfiltered) "
                            f"or an integer >= 1, got "
                            f"{self.filter_threshold!r}")
        for name in ("engine", "output_format"):
            if not isinstance(getattr(self, name), str):
                problems.append(f"{name} must be a registry name string, "
                                f"got {getattr(self, name)!r}")
        for name in ("full_fallback", "verify_index"):
            if not isinstance(getattr(self, name), bool):
                problems.append(f"{name} must be a bool, "
                                f"got {getattr(self, name)!r}")
        if problems:
            raise MappingConfigError(
                "invalid MappingConfig: " + "; ".join(problems))
        return self

    def resolve_stages(self) -> None:
        """Check ``engine`` and ``output_format`` against their tables
        (:mod:`repro.api.registry`).

        Separate from :meth:`validate` so constructing a config stays
        import-light.  :class:`~repro.api.Mapper` calls this before
        building anything, and each error names the available entries.
        """
        from .registry import engine_class, output_format

        engine_class(self.engine)
        output_format(self.output_format)

    # -- derivations ---------------------------------------------------

    def fingerprint(self) -> IndexFingerprint:
        """The canonical index fingerprint this config requires."""
        return IndexFingerprint(seed_length=self.seed_length,
                                filter_threshold=self.filter_threshold)

    def genpair(self):
        """The :class:`~repro.core.pipeline.GenPairConfig` of this run:
        the core's defaults under the three values the facade sets."""
        from ..core.pipeline import GenPairConfig

        return GenPairConfig(seed_length=self.seed_length,
                             filter_threshold=self.filter_threshold,
                             delta=self.delta)

    def replace(self, **changes: Any) -> "MappingConfig":
        """A copy with ``changes`` applied (and re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- wire format ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON-types dictionary; round-trips via :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MappingConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected by name so a version-skewed daemon
        request fails loudly instead of silently dropping knobs.
        """
        known = {spec.name for spec in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise MappingConfigError(
                f"unknown MappingConfig field(s): {', '.join(unknown)}")
        return cls(**payload)
