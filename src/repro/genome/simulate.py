"""Mason-like read simulation: paired-end, single-end, and long reads.

The paper's datasets are (a) real GIAB HG002 2x150bp paired-end reads and
(b) Mason-simulated reads for the sensitivity studies (§7.7, §7.8).  Neither
real data nor the Mason binary is available here, so this module implements
the equivalent generative process:

* fragments are drawn from a (diploid donor or plain reference) genome with
  a Gaussian insert-size model, and both ends are read inward (FR
  orientation) — the geometry paired-adjacency filtering exploits (§4.5);
* sequencing errors follow either the *Mason default* profile (a uniform
  split across substitutions, insertions and deletions at a fixed per-base
  rate — used for Figs 12 and 13), or a *GIAB-like* profile whose per-
  fragment error rate is gamma-overdispersed.  The overdispersion is what
  makes a realistic minority of read-pairs carry many errors, which is why
  the paper's exact-match rates (§3.2, Observation 1) sit far below what an
  i.i.d. error model would predict.

Every simulated read carries its ground-truth reference interval, which the
mapeval experiments (Fig 13) and the accuracy analyses consume directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .reference import ReferenceGenome
from .sequence import ALPHABET_SIZE, reverse_complement
from .variants import DiploidDonor, Haplotype


class SimulationError(ValueError):
    """Raised for infeasible simulation requests."""


@dataclass(frozen=True)
class ErrorModel:
    """Per-base sequencing error process.

    ``mean_rate`` is the expected per-base error probability.  When
    ``overdispersion_shape`` is positive, each *fragment* draws its own rate
    from a Gamma distribution with that shape (scaled to the mean), which
    concentrates errors on a minority of fragments; zero means every base
    uses ``mean_rate`` i.i.d. (Mason's default behaviour).
    """

    mean_rate: float = 0.004
    substitution_fraction: float = 1.0 / 3.0
    insertion_fraction: float = 1.0 / 3.0
    deletion_fraction: float = 1.0 / 3.0
    overdispersion_shape: float = 0.0

    def __post_init__(self) -> None:
        total = (self.substitution_fraction + self.insertion_fraction
                 + self.deletion_fraction)
        if not np.isclose(total, 1.0):
            raise SimulationError("error-type fractions must sum to 1")
        if self.mean_rate < 0 or self.mean_rate >= 0.5:
            raise SimulationError("mean_rate must be in [0, 0.5)")

    @classmethod
    def mason_default(cls, rate: float = 0.004) -> "ErrorModel":
        """Mason's default: uniform substitution/insertion/deletion split."""
        return cls(mean_rate=rate)

    @classmethod
    def giab_like(cls) -> "ErrorModel":
        """Profile calibrated to the paper's GIAB observations (§3).

        Substitution-dominated (Illumina/BGISEQ-like) with fragment-level
        overdispersion; see DESIGN.md for the calibration targets
        (single-end full-read exact rate ~56%, paired ~37%, Observation 1
        ~86%, Observation 3 ~70%).
        """
        return cls(mean_rate=0.005, substitution_fraction=0.84,
                   insertion_fraction=0.08, deletion_fraction=0.08,
                   overdispersion_shape=0.45)

    @classmethod
    def perfect(cls) -> "ErrorModel":
        """No sequencing errors at all (unit tests)."""
        return cls(mean_rate=0.0)

    def draw_fragment_rate(self, rng: np.random.Generator) -> float:
        """Draw the per-base error rate used for one fragment."""
        if self.overdispersion_shape <= 0 or self.mean_rate == 0:
            return self.mean_rate
        scale = self.mean_rate / self.overdispersion_shape
        return float(min(0.45, rng.gamma(self.overdispersion_shape, scale)))


@dataclass(frozen=True)
class PairedEndProfile:
    """Library geometry for paired-end sequencing."""

    read_length: int = 150
    insert_mean: float = 350.0
    insert_sd: float = 35.0

    def __post_init__(self) -> None:
        if self.insert_mean < 2 * self.read_length:
            raise SimulationError(
                "insert size must be at least twice the read length")


@dataclass(frozen=True)
class SimulatedRead:
    """A simulated read with its ground-truth reference interval.

    ``ref_start``/``ref_end`` bracket where the read's template came from in
    *reference* coordinates (after undoing donor variants); ``strand`` is
    ``"+"`` when the read sequence matches the forward reference.
    """

    name: str
    codes: np.ndarray
    chromosome: str
    ref_start: int
    ref_end: int
    strand: str
    mate: int = 0  # 0 = single-end, 1/2 = paired-end mate index

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class SimulatedPair:
    """A simulated read pair plus its fragment-level ground truth."""

    read1: SimulatedRead
    read2: SimulatedRead
    fragment_start: int
    fragment_end: int
    chromosome: str

    @property
    def name(self) -> str:
        return self.read1.name.rsplit("/", 1)[0]

    @property
    def insert_size(self) -> int:
        return self.fragment_end - self.fragment_start


class ReadSimulator:
    """Draws reads from a reference genome or a diploid donor."""

    def __init__(self, reference: ReferenceGenome,
                 donor: Optional[DiploidDonor] = None,
                 error_model: Optional[ErrorModel] = None,
                 profile: Optional[PairedEndProfile] = None,
                 seed: int = 0) -> None:
        self.reference = reference
        self.donor = donor
        self.error_model = error_model or ErrorModel.giab_like()
        self.profile = profile or PairedEndProfile()
        self.rng = np.random.default_rng(seed)
        self._names = list(reference.names)
        lengths = np.array([reference.length(n) for n in self._names],
                           dtype=float)
        self._weights = lengths / lengths.sum()

    # -- template sampling -------------------------------------------------

    def _pick_template(self, fragment_length: int
                       ) -> Tuple[str, np.ndarray, int, "_CoordMap"]:
        """Pick a chromosome/haplotype and a fragment window on it."""
        for _ in range(64):
            name = self.rng.choice(self._names, p=self._weights)
            if self.donor is not None:
                hap_index = int(self.rng.integers(0, 2))
                haplotype = self.donor.haplotypes[name][hap_index]
                source = haplotype.codes
                coord = _CoordMap(haplotype)
            else:
                source = self.reference.fetch(name, 0,
                                              self.reference.length(name))
                coord = _CoordMap(None)
            if len(source) > fragment_length:
                start = int(self.rng.integers(0,
                                              len(source) - fragment_length))
                return name, source, start, coord
        raise SimulationError("no chromosome long enough for the fragment")

    # -- error process -----------------------------------------------------

    def _read_off_template(self, template: np.ndarray, length: int,
                           rate: float) -> np.ndarray:
        """Read ``length`` bases off ``template`` with the error process.

        Walks the template the way a sequencer does: a deletion skips a
        template base, an insertion emits a random base without consuming
        one, a substitution corrupts the consumed base.
        """
        model = self.error_model
        out = np.empty(length, dtype=np.uint8)
        produced = 0
        cursor = 0
        rng = self.rng
        while produced < length:
            if cursor >= len(template):
                # Template exhausted (rare, heavy-deletion fragments): pad
                # with random bases, as a sequencer reads into adapter.
                out[produced:] = rng.integers(0, ALPHABET_SIZE,
                                              size=length - produced,
                                              dtype=np.uint8)
                break
            if rate > 0 and rng.random() < rate:
                roll = rng.random()
                if roll < model.substitution_fraction:
                    shift = int(rng.integers(1, ALPHABET_SIZE))
                    out[produced] = (int(template[cursor]) + shift) % 4
                    produced += 1
                    cursor += 1
                elif roll < model.substitution_fraction + \
                        model.insertion_fraction:
                    out[produced] = rng.integers(0, ALPHABET_SIZE)
                    produced += 1
                else:  # deletion
                    cursor += 1
            else:
                out[produced] = template[cursor]
                produced += 1
                cursor += 1
        return out

    # -- public API --------------------------------------------------------

    def simulate_pairs(self, count: int,
                       name_prefix: str = "pair") -> List[SimulatedPair]:
        """Simulate ``count`` FR-oriented read pairs."""
        profile = self.profile
        pairs: List[SimulatedPair] = []
        for index in range(count):
            insert = max(2 * profile.read_length,
                         int(round(self.rng.normal(profile.insert_mean,
                                                   profile.insert_sd))))
            name, source, start, coord = self._pick_template(insert)
            rate = self.error_model.draw_fragment_rate(self.rng)
            slack = profile.read_length // 2
            fwd_template = source[start:start + profile.read_length + slack]
            rev_template = reverse_complement(
                source[max(0, start + insert - profile.read_length - slack):
                       start + insert])
            read1_codes = self._read_off_template(fwd_template,
                                                  profile.read_length, rate)
            read2_codes = self._read_off_template(rev_template,
                                                  profile.read_length, rate)
            ref_start = coord.to_reference(start)
            ref_end = coord.to_reference(start + insert)
            r1_end = coord.to_reference(start + profile.read_length)
            r2_start = coord.to_reference(start + insert
                                          - profile.read_length)
            base = f"{name_prefix}{index}"
            read1 = SimulatedRead(f"{base}/1", read1_codes, name,
                                  ref_start, r1_end, "+", mate=1)
            read2 = SimulatedRead(f"{base}/2", read2_codes, name,
                                  r2_start, ref_end, "-", mate=2)
            pairs.append(SimulatedPair(read1, read2, ref_start, ref_end,
                                       name))
        return pairs

    def simulate_single(self, count: int,
                        name_prefix: str = "read") -> List[SimulatedRead]:
        """Simulate ``count`` single-end reads (forward strand only)."""
        length = self.profile.read_length
        reads: List[SimulatedRead] = []
        for index in range(count):
            name, source, start, coord = self._pick_template(length + 20)
            rate = self.error_model.draw_fragment_rate(self.rng)
            template = source[start:start + length + 20]
            codes = self._read_off_template(template, length, rate)
            reads.append(SimulatedRead(f"{name_prefix}{index}", codes, name,
                                       coord.to_reference(start),
                                       coord.to_reference(start + length),
                                       "+"))
        return reads

    def simulate_long_reads(self, count: int, length_mean: float = 9569.0,
                            length_sd: float = 2000.0,
                            error_rate: float = 0.005,
                            name_prefix: str = "long"
                            ) -> List[SimulatedRead]:
        """Simulate PacBio-HiFi-like long reads (§4.7 long-read mode).

        The paper's long-read dataset averages 9,569 bp with HiFi-level
        accuracy; the default error rate follows that regime.
        """
        longest = max(self.reference.length(name)
                      for name in self.reference.names)
        reads: List[SimulatedRead] = []
        for index in range(count):
            length = max(500, int(self.rng.normal(length_mean, length_sd)))
            length = min(length, longest - 200)
            name, source, start, coord = self._pick_template(length + 100)
            template = source[start:start + length + 100]
            codes = self._read_off_template(template, length, error_rate)
            reads.append(SimulatedRead(f"{name_prefix}{index}", codes, name,
                                       coord.to_reference(start),
                                       coord.to_reference(start + length),
                                       "+"))
        return reads


class _CoordMap:
    """Donor→reference coordinate mapping (identity when no donor)."""

    def __init__(self, haplotype: Optional[Haplotype]) -> None:
        self._haplotype = haplotype

    def to_reference(self, position: int) -> int:
        if self._haplotype is None:
            return position
        return self._haplotype.to_reference(
            min(position, len(self._haplotype)))
