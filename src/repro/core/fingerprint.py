"""The canonical SeedMap/index build fingerprint.

One definition of "what configuration was this index built with" —
the ``(seed_length, filter_threshold)`` pair — shared by every layer
that answers the question: :class:`~repro.core.seedmap.SeedMap`
carries the fields, :attr:`repro.index.MappingIndex.fingerprint` reads
them from it, and :meth:`repro.api.MappingConfig.fingerprint` derives
the same object from a config, so :class:`repro.api.Mapper` compares
the two in one place.  Living here, below both ``repro.index`` and
``repro.api``, the definition can be imported by either without
layering cycles; the public API re-exports it as
``repro.api.IndexFingerprint``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class IndexFingerprint:
    """The canonical build fingerprint of a SeedMap / persistent index.

    Two components are compatible exactly when their fingerprints are
    equal.  ``filter_threshold=None`` means the unfiltered
    configuration (Table 7's "no filter").
    """

    seed_length: int
    filter_threshold: Optional[int]

    def describe(self) -> str:
        threshold = ("none" if self.filter_threshold is None
                     else self.filter_threshold)
        return (f"seed length {self.seed_length}, filter threshold "
                f"{threshold}")

    def conflicts(self, expected: "IndexFingerprint") -> List[str]:
        """One ``"<field> <ours>, expected <theirs>"`` per field that
        differs from ``expected``; empty when the two are equal."""
        return [f"{spec.name} {getattr(self, spec.name)}, expected "
                f"{getattr(expected, spec.name)}"
                for spec in dataclasses.fields(self)
                if getattr(self, spec.name) != getattr(expected,
                                                       spec.name)]
