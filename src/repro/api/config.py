"""Unified mapping configuration and the canonical index fingerprint.

:class:`MappingConfig` is the one knob object of the public API: it
consolidates the algorithmic parameters of
:class:`~repro.core.pipeline.GenPairConfig` with the index, batching,
worker, and engine/format-selection knobs that used to be scattered across
``GenPairPipeline``, ``StreamExecutor``, ``open_index``, and the CLI.
A config validates itself eagerly (:meth:`MappingConfig.validate`),
round-trips through plain dictionaries (:meth:`MappingConfig.to_dict` /
:meth:`MappingConfig.from_dict` — the daemon wire format), and derives
the engine-facing :class:`~repro.core.pipeline.GenPairConfig` on demand.

:class:`IndexFingerprint` is the **single canonical fingerprint** of an
index-compatible configuration: the ``(seed_length, filter_threshold,
step)`` triple a SeedMap was built with.  It is defined once, in
:mod:`repro.core.fingerprint` (below both this package and
``repro.index``, so either can import it without layering cycles), and
re-exported here: ``repro.index`` persists it in every index header and
validates it on open, and :meth:`MappingConfig.fingerprint` produces
the same object — so "does this config match that index?" is one
comparison with one definition, not two copies of the logic drifting
apart.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..align.scoring import HIGH_QUALITY_THRESHOLD
from ..core.fingerprint import UNSET, IndexFingerprint
from ..core.pairfilter import DEFAULT_DELTA
from ..core.seedmap import DEFAULT_FILTER_THRESHOLD

__all__ = ["UNSET", "IndexFingerprint", "LongReadOptions", "MappingConfig",
           "MappingConfigError", "Mm2Options"]


class MappingConfigError(ValueError):
    """A :class:`MappingConfig` failed validation, or a config and an
    index disagree on the fingerprint."""


def _reject_unknown(cls, payload: Dict[str, Any], label: str) -> None:
    """Raise naming every key of ``payload`` that ``cls`` lacks, so a
    version-skewed wire payload fails loudly instead of dropping knobs."""
    known = {spec.name for spec in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise MappingConfigError(
            f"unknown {label} field(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class Mm2Options:
    """Engine-specific knobs of the ``mm2`` engine.

    Only meaningful with ``engine="mm2"`` — attaching these options to
    a config selecting another engine is rejected loudly (the knobs
    would otherwise silently do nothing).
    """

    #: Attempt mate rescue for pairs with no proper combination.
    mate_rescue: bool = True
    #: Proper-pair insert-size bound (and the mate-rescue window size).
    max_insert: int = 1000
    #: Alignments below this fraction of the perfect score are unmapped.
    min_score_fraction: float = 0.4

    def problems(self) -> List[str]:
        out: List[str] = []
        if not isinstance(self.mate_rescue, bool):
            out.append(f"mm2.mate_rescue must be a boolean, got "
                       f"{self.mate_rescue!r}")
        if not isinstance(self.max_insert, int) \
                or isinstance(self.max_insert, bool) or self.max_insert < 1:
            out.append(f"mm2.max_insert must be an integer >= 1, got "
                       f"{self.max_insert!r}")
        if not isinstance(self.min_score_fraction, (int, float)) \
                or not 0.0 <= float(self.min_score_fraction) <= 1.0:
            out.append("mm2.min_score_fraction must be within [0, 1], "
                       f"got {self.min_score_fraction!r}")
        return out

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Mm2Options":
        _reject_unknown(cls, payload, "Mm2Options")
        return cls(**payload)


@dataclass(frozen=True)
class LongReadOptions:
    """Engine-specific knobs of the ``longread`` engine.

    Only meaningful with ``engine="longread"`` — attaching these
    options to a config selecting another engine is rejected loudly.
    """

    #: Pseudo-pair chunk length (must be >= the config's seed_length).
    chunk_length: int = 150
    #: Bin width for location voting.
    vote_bin: int = 64
    #: How many top-voted locations get a DP alignment attempt.
    max_votes_tried: int = 3
    #: Vote threshold: bins with fewer votes never get a DP attempt.
    min_votes: int = 1
    #: Band width of the finishing DP alignment.
    dp_bandwidth: int = 96

    def problems(self) -> List[str]:
        out: List[str] = []
        for name, minimum in (("chunk_length", 1), ("vote_bin", 1),
                              ("max_votes_tried", 1), ("min_votes", 1),
                              ("dp_bandwidth", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < minimum:
                out.append(f"longread.{name} must be an integer >= "
                           f"{minimum}, got {value!r}")
        return out

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "LongReadOptions":
        _reject_unknown(cls, payload, "LongReadOptions")
        return cls(**payload)


@dataclass(frozen=True)
class MappingConfig:
    """Every knob of a mapping run, in one validated object.

    Groups, mirroring the layers the values configure:

    * **fingerprint** — ``seed_length``, ``filter_threshold``, ``step``:
      what the SeedMap/index must have been built with
      (:meth:`fingerprint`);
    * **algorithm** — the remaining
      :class:`~repro.core.pipeline.GenPairConfig` parameters
      (``delta``, ``max_edits``, score/fallback knobs);
    * **workload** — ``engine`` names the mapping engine
      (``genpair`` | ``mm2`` | ``longread``), ``output_format`` the
      output writer (``sam`` | ``paf`` | ``jsonl``), and ``mm2`` /
      ``longread`` carry engine-specific sub-configs
      (:class:`Mm2Options` / :class:`LongReadOptions`) that are
      rejected loudly when they don't apply to the selected engine;
    * **execution** — ``batch_size`` (pairs per chunk of the one
      chunked dataflow; chunk boundaries never change results) and
      ``workers`` (>1 streams chunks through a persistent forked
      pool);
    * **environment** — ``full_fallback`` (map residual pairs with the
      baseline MM2 pipeline) and ``verify_index`` (crc-check arrays on
      index open).
    """

    # fingerprint
    seed_length: int = 50
    filter_threshold: Optional[int] = DEFAULT_FILTER_THRESHOLD
    step: int = 1
    # algorithm
    seeds_per_read: int = 3
    delta: int = DEFAULT_DELTA
    max_edits: int = 5
    score_threshold: int = HIGH_QUALITY_THRESHOLD
    fallback_bandwidth: int = 16
    fallback_pad: int = 24
    max_joint_candidates: int = 16
    min_dp_score_fraction: float = 0.5
    # workload
    engine: str = "genpair"
    output_format: str = "sam"
    mm2: Optional[Mm2Options] = None
    longread: Optional[LongReadOptions] = None
    # execution
    batch_size: int = 256
    workers: int = 1
    # environment
    full_fallback: bool = True
    verify_index: bool = True

    def __post_init__(self) -> None:
        # Wire payloads carry sub-configs as plain dicts; adopt them as
        # the typed options objects before validating (unknown keys are
        # rejected by name inside from_dict).
        if isinstance(self.mm2, dict):
            object.__setattr__(self, "mm2", Mm2Options.from_dict(self.mm2))
        if isinstance(self.longread, dict):
            object.__setattr__(self, "longread",
                               LongReadOptions.from_dict(self.longread))
        self.validate()

    # -- validation ----------------------------------------------------

    def validate(self) -> "MappingConfig":
        """Raise :class:`MappingConfigError` listing every bad field."""
        problems: List[str] = []
        for name, minimum, *hint in (
                ("seed_length", 1), ("step", 1), ("seeds_per_read", 1),
                ("delta", 1), ("max_edits", 0), ("fallback_bandwidth", 1),
                ("fallback_pad", 0), ("max_joint_candidates", 1),
                # 0 used to be a valid batch_size: say what replaced it.
                ("batch_size", 1, " (the pair-by-pair engine that 0 "
                                  "selected is gone; 1 gives the same "
                                  "output)"),
                ("workers", 1)):
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
        if not isinstance(self.min_dp_score_fraction, (int, float)) \
                or not 0.0 <= float(self.min_dp_score_fraction) <= 1.0:
            problems.append("min_dp_score_fraction must be within "
                            f"[0, 1], got {self.min_dp_score_fraction!r}")
        for name in ("engine", "output_format"):
            if not isinstance(getattr(self, name), str):
                problems.append(f"{name} must be a registry name string, "
                                f"got {getattr(self, name)!r}")
        # Engine sub-configs must match the selected engine: silently
        # inert knobs are the failure mode this check exists to kill.
        for field_name, option_type in (("mm2", Mm2Options),
                                        ("longread", LongReadOptions)):
            value = getattr(self, field_name)
            if value is None:
                continue
            if not isinstance(value, option_type):
                problems.append(
                    f"{field_name} must be a {option_type.__name__} "
                    f"(or an equivalent dict), got {value!r}")
                continue
            problems.extend(value.problems())
            if self.engine != field_name:
                problems.append(
                    f"{field_name} options only apply to "
                    f"engine={field_name!r}, but engine is "
                    f"{self.engine!r}; drop them or select the "
                    f"matching engine")
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
                                filter_threshold=self.filter_threshold,
                                step=self.step)

    def genpair(self):
        """The engine-facing :class:`~repro.core.pipeline.GenPairConfig`."""
        from ..core.pipeline import GenPairConfig

        return GenPairConfig(
            seed_length=self.seed_length,
            seeds_per_read=self.seeds_per_read,
            delta=self.delta,
            filter_threshold=self.filter_threshold,
            max_edits=self.max_edits,
            score_threshold=self.score_threshold,
            fallback_bandwidth=self.fallback_bandwidth,
            fallback_pad=self.fallback_pad,
            max_joint_candidates=self.max_joint_candidates,
            min_dp_score_fraction=self.min_dp_score_fraction)

    def mm2_options(self) -> Mm2Options:
        """The effective ``mm2`` engine options (defaults when unset)."""
        return self.mm2 if self.mm2 is not None else Mm2Options()

    def longread_options(self) -> LongReadOptions:
        """The effective ``longread`` engine options (defaults when
        unset)."""
        return self.longread if self.longread is not None \
            else LongReadOptions()

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
        _reject_unknown(cls, payload, "MappingConfig")
        return cls(**payload)

    @classmethod
    def from_fingerprint(cls, fingerprint: IndexFingerprint,
                         **overrides: Any) -> "MappingConfig":
        """A config adopting an index's fingerprint (plus overrides).

        A fingerprint field passed in ``overrides`` is an
        *expectation*, not an override: the fingerprint is the ground
        truth, so a conflicting value raises
        :class:`MappingConfigError` (the ``map --index
        --filter-threshold`` gate) instead of silently reconfiguring.
        """
        problems = fingerprint.conflicts(
            seed_length=overrides.pop("seed_length", None),
            filter_threshold=overrides.pop("filter_threshold", UNSET),
            step=overrides.pop("step", None))
        if problems:
            raise MappingConfigError(
                "index fingerprint mismatch: built with "
                f"{'; '.join(problems)}")
        return cls(seed_length=fingerprint.seed_length,
                   filter_threshold=fingerprint.filter_threshold,
                   step=fingerprint.step, **overrides)
