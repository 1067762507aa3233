"""The canonical SeedMap/index build fingerprint.

One definition of "what configuration was this index built with" —
the ``(seed_length, filter_threshold, step)`` triple — shared by every
layer that answers the question: :class:`~repro.core.seedmap.SeedMap`
carries the fields, :mod:`repro.index` persists them in every index
header and validates them on open, and
:meth:`repro.api.MappingConfig.fingerprint` derives the same object
from a config.  Living here, below both ``repro.index`` and
``repro.api``, the definition can be imported by either without
layering cycles; the public API re-exports it as
``repro.api.IndexFingerprint``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Sentinel distinguishing "no expectation" from a meaningful ``None``
#: (``filter_threshold=None`` is the unfiltered configuration).
UNSET = object()


@dataclass(frozen=True)
class IndexFingerprint:
    """The canonical build fingerprint of a SeedMap / persistent index.

    Two components are compatible exactly when their fingerprints are
    equal.  ``filter_threshold=None`` means the unfiltered
    configuration (Table 7's "no filter"), which is why per-field
    expectation checks use the :data:`UNSET` sentinel rather than
    ``None``.
    """

    seed_length: int
    filter_threshold: Optional[int]
    step: int = 1

    @classmethod
    def from_meta(cls, meta: Dict[str, Any]) -> "IndexFingerprint":
        """Fingerprint recorded in a persistent index's JSON header."""
        return cls(seed_length=int(meta["seed_length"]),
                   filter_threshold=(None
                                     if meta["filter_threshold"] is None
                                     else int(meta["filter_threshold"])),
                   step=int(meta.get("step", 1)))

    def describe(self) -> str:
        threshold = ("none" if self.filter_threshold is None
                     else self.filter_threshold)
        return (f"seed length {self.seed_length}, filter threshold "
                f"{threshold}, step {self.step}")

    def conflicts(self, seed_length: Optional[int] = None,
                  filter_threshold: Any = UNSET,
                  step: Optional[int] = None) -> List[str]:
        """Human-readable mismatches against per-field expectations.

        ``None`` / :data:`UNSET` fields mean "accept whatever the
        fingerprint holds"; the returned list is empty when every given
        expectation matches.
        """
        problems: List[str] = []
        if seed_length is not None and seed_length != self.seed_length:
            problems.append(f"seed length {self.seed_length}, expected "
                            f"{seed_length}")
        if filter_threshold is not UNSET \
                and filter_threshold != self.filter_threshold:
            problems.append(
                f"filter threshold {self.filter_threshold}, expected "
                f"{filter_threshold}")
        if step is not None and step != self.step:
            problems.append(f"step {self.step}, expected {step}")
        return problems
