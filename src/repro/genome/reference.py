"""Reference genome model and synthetic genome generation.

The paper evaluates against GRCh38 (3.1 Gbp).  A pure-Python functional model
cannot process a human genome, so this module provides (a) a reference
container with the operations the pipeline needs and (b) a synthetic
generator that reproduces the *statistics* GenPair is sensitive to —
principally repeated sequence, which controls how many reference locations a
seed hits (Observation 2: ~9.6 locations per 50bp seed on GRCh38).

Coordinate model.  The seed layer (SeedMap and minimizer hits, the implied
read starts derived from them, the paired-adjacency filter) works in one
*linear* space, every chromosome a disjoint region of it (§4.2); everything
after works inside one chromosome.  :meth:`ReferenceGenome.window` is the
one crossing — an implied start belongs to the chromosome holding the
*middle* of the read span — and :meth:`ReferenceGenome.read_boundaries`
states the same rule for the filter.  No mapper converts a linear
coordinate on its own.

The generator plants two kinds of repeats:

* **interspersed repeats** — a small library of repeat elements (Alu-like)
  copied with light divergence to many random positions;
* **segmental duplications** — long windows copied elsewhere in the genome.

Both drive the multi-hit seed distribution and the index-filter-threshold
behaviour studied in §7.8.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .sequence import decode, random_sequence


class ReferenceError(ValueError):
    """Raised for out-of-range fetches or malformed genome input."""


@dataclass
class ReferenceGenome:
    """An in-memory reference genome: named chromosomes of base codes.

    Coordinates are 0-based, end-exclusive.  ``linear_offset`` assigns every
    chromosome a disjoint region of one global coordinate space so that
    locations from different chromosomes can be compared with plain integer
    arithmetic — this is exactly the flattened location representation the
    SeedMap Location Table stores (§4.2).
    """

    chromosomes: "Dict[str, np.ndarray]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._offsets: Dict[str, int] = {}
        self._names: List[str] = []
        cursor = 0
        for name, codes in self.chromosomes.items():
            self._offsets[name] = cursor
            self._names.append(name)
            cursor += len(codes)
        self._total = cursor
        self._starts: List[int] = list(self._offsets.values())
        self._boundaries: Dict[int, np.ndarray] = {}

    @classmethod
    def from_linear_codes(cls, names: Sequence[str],
                          lengths: Sequence[int],
                          codes: np.ndarray) -> "ReferenceGenome":
        """Reassemble a genome from its flattened linear code array.

        ``codes`` is the concatenation of every chromosome's base codes in
        declaration order — the same global coordinate space
        :meth:`linear_offset` spans.  Each chromosome becomes a *view*
        into ``codes`` (zero-copy), which is what lets the persistent
        index (:mod:`repro.index`) serve a whole genome out of one
        ``np.memmap`` that forked workers share physically.
        """
        codes = np.asarray(codes)
        if codes.ndim != 1:
            raise ReferenceError("linear codes must be one-dimensional")
        if len(names) != len(set(names)):
            raise ReferenceError("duplicate chromosome names")
        if len(names) != len(lengths):
            raise ReferenceError("names and lengths differ in count")
        chromosomes: Dict[str, np.ndarray] = {}
        cursor = 0
        for name, length in zip(names, lengths):
            if length < 0:
                raise ReferenceError("negative chromosome length")
            chromosomes[name] = codes[cursor:cursor + length]
            cursor += length
        if cursor != len(codes):
            raise ReferenceError(
                f"linear codes hold {len(codes)} bases but chromosome "
                f"lengths sum to {cursor}")
        return cls(chromosomes)

    def linear_codes(self) -> np.ndarray:
        """Every chromosome's codes concatenated in declaration order."""
        if not self._names:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate([self.chromosomes[name]
                               for name in self._names])

    # -- introspection -----------------------------------------------------

    @property
    def names(self) -> Tuple[str, ...]:
        """Chromosome names in declaration order."""
        return tuple(self._names)

    @property
    def total_length(self) -> int:
        """Total bases across all chromosomes."""
        return self._total

    def length(self, name: str) -> int:
        """Length of one chromosome."""
        return len(self._chromosome(name))

    def _chromosome(self, name: str) -> np.ndarray:
        try:
            return self.chromosomes[name]
        except KeyError:
            raise ReferenceError(f"unknown chromosome {name!r}") from None

    # -- coordinates -------------------------------------------------------

    def linear_offset(self, name: str) -> int:
        """Global offset of position 0 of ``name``."""
        self._chromosome(name)
        return self._offsets[name]

    def read_boundaries(self, read_length: int) -> np.ndarray:
        """Sorted linear read *starts* at which a read of ``read_length``
        changes chromosome — every chromosome start moved back by half a
        read: :meth:`window`'s rule as the ``boundaries`` of
        :func:`repro.core.pairfilter.filter_adjacent`.  Cached per
        half-length; treat the array as read-only.
        """
        half = read_length // 2
        boundaries = self._boundaries.get(half)
        if boundaries is None:
            boundaries = self._boundaries[half] = np.array(
                self._starts, dtype=np.int64) - half
        return boundaries

    # -- sequence access ---------------------------------------------------

    def fetch(self, name: str, start: int, end: int) -> np.ndarray:
        """Fetch ``[start, end)`` of a chromosome as a code array (a view)."""
        codes = self._chromosome(name)
        if not 0 <= start <= end <= len(codes):
            raise ReferenceError(
                f"window [{start}, {end}) outside {name!r} "
                f"(length {len(codes)})")
        return codes[start:end]

    def window(self, start: int, read_length: int, before: int, after: int,
               min_length: int = 0, chromosome: Optional[str] = None
               ) -> Optional[Tuple[np.ndarray, str, int, int]]:
        """Reference bases around a read placed at ``start``, clamped to
        one chromosome: ``(window, chromosome, window_start, offset)``.

        ``start`` is a *linear* implied read start — indels can push it
        a few bases before its chromosome or leave the span overhanging
        the end — and the read belongs to the chromosome holding the
        middle of ``[start, start + read_length)``: ``None`` when that
        lies outside the genome.  With ``chromosome`` named, ``start`` is
        a position on it.  The window (a view) runs from ``before`` bases
        ahead of the span to ``after`` past it, cut at the chromosome's
        ends; shorter than ``min_length`` it is ``None`` too.
        ``offset = start - window_start`` places the read in it, negative
        for a start before the chromosome.
        """
        if chromosome is None:
            middle = start + read_length // 2
            if not 0 <= middle < self._total:
                return None
            index = bisect_right(self._starts, middle) - 1
            chromosome = self._names[index]
            codes = self.chromosomes[chromosome]
            start -= self._starts[index]
        else:
            codes = self._chromosome(chromosome)
        low = max(0, start - before)
        high = min(len(codes), start + read_length + after)
        if high - low < max(min_length, 0):
            return None
        return codes[low:high], chromosome, low, start - low

    def sequence(self, name: str) -> str:
        """Decode one whole chromosome to a string (tests/examples only)."""
        return decode(self._chromosome(name))


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepeatProfile:
    """Controls how much repeated sequence the generator plants.

    Parameters are chosen so the default small genomes reproduce the paper's
    multi-hit seed statistics at reduced scale (Observation 2).
    """

    #: Number of distinct interspersed repeat elements in the library.
    library_size: int = 4
    #: Length of each interspersed repeat element, in bases.
    element_length: int = 300
    #: Fraction of the genome covered by interspersed repeat copies.
    interspersed_fraction: float = 0.25
    #: Per-base divergence applied to each planted repeat copy.
    copy_divergence: float = 0.02
    #: Number of long segmental duplications to plant.
    segmental_duplications: int = 2
    #: Length of each segmental duplication, in bases.
    duplication_length: int = 2000

    @classmethod
    def human_like(cls) -> "RepeatProfile":
        """Repeat density calibrated to Observation 2 (~9.6 locations/seed).

        Recent, low-divergence repeats dominate exact 50bp multiplicity in
        GRCh38; this profile plants near-identical copies so that the mean
        number of reference locations per queried seed lands near the
        paper's 9.3-9.6 range (validated in the benchmark suite).
        """
        return cls(library_size=6, element_length=300,
                   interspersed_fraction=0.42, copy_divergence=0.002,
                   segmental_duplications=4, duplication_length=3000)


def generate_reference(
    rng: np.random.Generator,
    chromosome_lengths: Sequence[int] = (400_000, 300_000),
    repeats: Optional[RepeatProfile] = RepeatProfile(),
    name_prefix: str = "chr",
) -> ReferenceGenome:
    """Generate a synthetic reference genome with repeat structure.

    Parameters
    ----------
    rng:
        Source of randomness; pass a seeded generator for reproducibility.
    chromosome_lengths:
        Length of each chromosome to generate.
    repeats:
        Repeat structure profile, or ``None`` for a purely random genome
        (every seed then hits ~1 location — useful in unit tests).
    name_prefix:
        Chromosomes are named ``f"{name_prefix}{i+1}"``.
    """
    if any(length <= 0 for length in chromosome_lengths):
        raise ReferenceError("chromosome lengths must be positive")
    chromosomes: Dict[str, np.ndarray] = {}
    for index, length in enumerate(chromosome_lengths):
        chromosomes[f"{name_prefix}{index + 1}"] = random_sequence(rng, length)
    if repeats is not None:
        _plant_interspersed_repeats(rng, chromosomes, repeats)
        _plant_segmental_duplications(rng, chromosomes, repeats)
    return ReferenceGenome(chromosomes)


def _mutate_copy(rng: np.random.Generator, codes: np.ndarray,
                 divergence: float) -> np.ndarray:
    """Return a copy of ``codes`` with i.i.d. substitutions at ``divergence``."""
    copy = codes.copy()
    if divergence <= 0:
        return copy
    hits = rng.random(copy.size) < divergence
    if hits.any():
        shifts = rng.integers(1, 4, size=int(hits.sum()), dtype=np.uint8)
        copy[hits] = (copy[hits] + shifts) % 4
    return copy


def _plant_interspersed_repeats(rng: np.random.Generator,
                                chromosomes: Dict[str, np.ndarray],
                                profile: RepeatProfile) -> None:
    library = [random_sequence(rng, profile.element_length)
               for _ in range(profile.library_size)]
    names = list(chromosomes)
    total = sum(len(chromosomes[name]) for name in names)
    target = int(total * profile.interspersed_fraction)
    planted = 0
    while planted < target:
        element = library[int(rng.integers(0, len(library)))]
        name = names[int(rng.integers(0, len(names)))]
        codes = chromosomes[name]
        if len(codes) <= len(element):
            continue
        start = int(rng.integers(0, len(codes) - len(element)))
        codes[start:start + len(element)] = _mutate_copy(
            rng, element, profile.copy_divergence)
        planted += len(element)


def _plant_segmental_duplications(rng: np.random.Generator,
                                  chromosomes: Dict[str, np.ndarray],
                                  profile: RepeatProfile) -> None:
    names = list(chromosomes)
    for _ in range(profile.segmental_duplications):
        src_name = names[int(rng.integers(0, len(names)))]
        dst_name = names[int(rng.integers(0, len(names)))]
        src = chromosomes[src_name]
        dst = chromosomes[dst_name]
        length = min(profile.duplication_length, len(src) // 2, len(dst) // 2)
        if length <= 0:
            continue
        src_start = int(rng.integers(0, len(src) - length))
        dst_start = int(rng.integers(0, len(dst) - length))
        segment = src[src_start:src_start + length].copy()
        dst[dst_start:dst_start + length] = _mutate_copy(
            rng, segment, profile.copy_divergence / 2)
