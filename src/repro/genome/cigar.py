"""CIGAR string algebra (Compact Idiosyncratic Gapped Alignment Report).

CIGAR strings are the compressed alignment encoding used in SAM/BAM files and
produced by both the light-alignment hardware path and the DP fallback
(§2, §4.6).  This module provides a small, explicit value type with the
operations every consumer in the reproduction needs: parsing, rendering,
length accounting, normalization, and scoring under an affine-gap scheme.

Supported operations:

====  ==========================  consumes read  consumes reference
op    meaning
====  ==========================  =============  ==================
``M``  match or mismatch          yes            yes
``=``  sequence match             yes            yes
``X``  sequence mismatch          yes            yes
``I``  insertion (in the read)    yes            no
``D``  deletion (from the read)   no             yes
``S``  soft clip                  yes            no
====  ==========================  =============  ==================
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

_VALID_OPS = frozenset("M=XIDS")
_READ_OPS = frozenset("M=XIS")
_REF_OPS = frozenset("M=XD")
_CIGAR_RE = re.compile(r"(\d+)([M=XIDS])")
#: One run of equal op letters, and its letter.
_OP_RUN = re.compile(r"((.)\2*)", re.DOTALL)


class CigarError(ValueError):
    """Raised for malformed CIGAR input."""


@dataclass(frozen=True)
class Cigar:
    """An immutable CIGAR: a tuple of ``(length, op)`` pairs.

    Its text and :attr:`reference_length` are worked out once, at
    construction: every record of a mapped read renders the one and
    reads the other (twice, for a proper pair).
    """

    ops: Tuple[Tuple[int, str], ...]
    #: Number of reference bases consumed.
    reference_length: int = field(init=False, repr=False, compare=False)
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        reference_length = 0
        for length, op in self.ops:
            if op not in _VALID_OPS:
                raise CigarError(f"invalid CIGAR op {op!r}")
            if length <= 0:
                raise CigarError(f"non-positive CIGAR length {length}")
            if op in _REF_OPS:
                reference_length += length
        object.__setattr__(self, "reference_length", reference_length)
        object.__setattr__(self, "_text", "".join(
            f"{length}{op}" for length, op in self.ops) or "*")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, str]]) -> "Cigar":
        """Build a CIGAR from ``(length, op)`` pairs, merging adjacent ops."""
        merged: List[Tuple[int, str]] = []
        for length, op in pairs:
            if length == 0:
                continue
            if merged and merged[-1][1] == op:
                merged[-1] = (merged[-1][0] + length, op)
            else:
                merged.append((length, op))
        return cls(tuple(merged))

    @classmethod
    def from_ops(cls, ops: bytes) -> "Cigar":
        """Run-length encode one op letter per alignment column (``bytes``,
        or any buffer of ASCII letters such as a ``uint8`` array):
        ``b"==XI"`` is ``2=1X1I``.  One regex pass finds the runs; a
        letter that is no CIGAR op raises :class:`CigarError`."""
        return cls(tuple([(len(run), op) for run, op in _OP_RUN.findall(
            bytes(ops).decode("latin-1"))]))

    @classmethod
    def parse(cls, text: str) -> "Cigar":
        """Parse a SAM-style CIGAR string such as ``"100M2I48M"``."""
        if text in ("", "*"):
            return cls(())
        pos = 0
        pairs = []
        for match in _CIGAR_RE.finditer(text):
            if match.start() != pos:
                raise CigarError(f"malformed CIGAR: {text!r}")
            pairs.append((int(match.group(1)), match.group(2)))
            pos = match.end()
        if pos != len(text):
            raise CigarError(f"malformed CIGAR: {text!r}")
        return cls(tuple(pairs))

    @classmethod
    def perfect(cls, length: int) -> "Cigar":
        """A CIGAR describing ``length`` exact matches."""
        return cls(((length, "="),)) if length else cls(())

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return self._text

    # -- accounting --------------------------------------------------------

    @property
    def read_length(self) -> int:
        """Number of read bases consumed."""
        return sum(length for length, op in self.ops if op in _READ_OPS)

    def count(self, op: str) -> int:
        """Total length across runs of one operation."""
        return sum(length for length, o in self.ops if o == op)

    @property
    def edit_runs(self) -> Tuple[Tuple[int, str], ...]:
        """The non-match runs (X/I/D) in order — the 'edits' of §3.4."""
        return tuple((length, op) for length, op in self.ops
                     if op in ("X", "I", "D"))

    # -- transforms --------------------------------------------------------

    def concatenated(self, other: "Cigar") -> "Cigar":
        """Concatenate two CIGARs, merging the boundary run if needed."""
        return Cigar.from_pairs(list(self.ops) + list(other.ops))

    def classify_edits(self, merge_mismatches: bool = True) -> str:
        """Summarize the edit structure for the §3.4 analysis.

        Returns one of ``"exact"``, ``"mismatch_only"``, ``"single_indel"``
        (one consecutive run of I or D), or ``"complex"``.  Reads whose edits
        are solely mismatches or one consecutive indel run are exactly the
        69.9% population Light Alignment handles (Observation 3).
        """
        runs = self.edit_runs
        if not runs:
            return "exact"
        ops = {op for _, op in runs}
        if ops == {"X"}:
            return "mismatch_only"
        if ops in ({"I"}, {"D"}) and len(runs) == 1:
            return "single_indel"
        return "complex"
