"""Seed-chain-align baseline mapper (the evaluation's "MM2").

A compact reimplementation of the Minimap2 short-read pipeline the paper
profiles and compares against: minimizer seeding, O(n·lookback) chaining
DP, banded affine-gap alignment, and paired-end resolution with mate
rescue.  It serves three roles:

* the software baseline of Fig 1 (stage breakdown) and Fig 11 (CPU rows);
* the fallback engine behind "GenPair + MM2":
  ``GenPairPipeline(fallback=<mapper>)`` sends each chunk's residue
  through :meth:`Mm2LikeMapper.map_pairs`;
* the accuracy reference for Table 7.

The mapper aggregates DP-cell counts for chaining and alignment separately,
which is exactly the split the paper uses to size GenDP for the residual
workload (331,772 MCUPS chaining vs 3,469,180 MCUPS alignment per million
reads, §7.4).

Seeding, chaining and chain alignment are chunk-wide and array-native:
:meth:`Mm2LikeMapper.map_pairs` extracts the minimizers of every read and
strand of the chunk in one pass, resolves them in one index probe into
anchor columns, chains them in one :func:`chain_anchors` sweep (one
chaining problem per read and strand) and aligns the kept chains of every
read in one :func:`align_banded` sweep per window shape
(:func:`~repro.align.banded.stack_problems`, cut by its cell budget).
Pairing and mate rescue — one wide-band call per rescue, a shape that is
throughput-bound alone — then run pair by pair.  What shares a sweep
never changes a result, so every record and counter is that of a
:meth:`~Mm2LikeMapper.map_pair` loop, which is a chunk of one.  Each pair
comes out as a :class:`~repro.genome.results.MappingResult` (stage
``proper_pair``, ``mapped`` or ``unmapped``).  The per-anchor and
per-k-mer loops this replaced are the oracle in ``tests/oracles/align.py``.

Coordinates: minimizer hits, anchors and chain diagonals are *linear*;
:meth:`~repro.genome.ReferenceGenome.window` turns a chain's diagonal
into a chromosome and a window, and a placement is ``(chromosome,
position)`` from there on — pairing compares chromosomes before gaps,
rescue searches the anchor's chromosome, records copy the placement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..align.banded import align_banded, stack_problems
from ..align.chaining import AnchorColumns, chain_anchors
from ..align.dp import AlignmentResult
from ..align.scoring import DEFAULT_SCHEME, ScoringScheme
from ..genome.reference import ReferenceGenome
from ..genome.results import MappingResult
from ..genome.sam import METHOD_DP, AlignmentRecord
from ..genome.sequence import reverse_complement
from ..obs import span
from .index import MinimizerIndex
from .minimizer import extract_minimizers_rows


@dataclass(frozen=True)
class MapperConfig:
    """Baseline mapper parameters (minimap2 short-read flavoured)."""

    k: int = 15
    w: int = 10
    max_occurrences: int = 500
    max_gap: int = 500
    max_chains_tried: int = 4
    bandwidth: int = 16
    window_pad: int = 32
    min_chain_score: float = 20.0
    max_insert: int = 1000
    #: Alignments below this fraction of the perfect score are unmapped.
    min_score_fraction: float = 0.4
    #: Attempt mate rescue (banded search in the insert window) when no
    #: properly-oriented combination of independent placements exists.
    mate_rescue: bool = True


@dataclass
class MapperStats:
    """DP accounting and outcome counters."""

    reads_seen: int = 0
    reads_mapped: int = 0
    pairs_seen: int = 0
    pairs_proper: int = 0
    mate_rescues: int = 0
    anchors_total: int = 0
    dp_cells_chaining: int = 0
    dp_cells_alignment: int = 0


@dataclass(frozen=True)
class _Placement:
    """Internal: one scored candidate placement of a read."""

    score: int
    chromosome: str
    position: int
    strand: str
    alignment: AlignmentResult


class Mm2LikeMapper:
    """Minimizer seed-chain-align mapper with paired-end support.

    ``index`` may be a zero-argument callable returning the index: it
    is called when the first read is seeded, so a mapper that is only a
    fallback builds nothing until a pair needs it.
    """

    def __init__(self, reference: ReferenceGenome,
                 index: Union[MinimizerIndex, Callable[[], MinimizerIndex],
                              None] = None,
                 config: Optional[MapperConfig] = None,
                 scheme: ScoringScheme = DEFAULT_SCHEME) -> None:
        config = config if config is not None else MapperConfig()
        self.reference = reference
        self.config = config
        self.scheme = scheme
        self._index = index if index is not None else MinimizerIndex.build(
            reference, k=config.k, w=config.w,
            max_occurrences=config.max_occurrences)
        self.stats = MapperStats()

    @property
    def index(self) -> MinimizerIndex:
        if callable(self._index):
            self._index = self._index()
        return self._index

    # -- single-end ----------------------------------------------------------

    def map_read(self, codes: np.ndarray, name: str = "read",
                 mate: int = 0,
                 placements: Optional[List[_Placement]] = None
                 ) -> AlignmentRecord:
        """Map one read; returns an unmapped record if nothing scores.

        ``placements`` is :meth:`map_reads` handing over what it seeded,
        chained and aligned for the whole chunk; alone, the read is a
        chunk of one.
        """
        self.stats.reads_seen += 1
        if placements is None:
            placements, = self._placements([codes])
        min_score = int(self.config.min_score_fraction
                        * self.scheme.perfect_score(len(codes)))
        placements = [p for p in placements if p.score >= min_score]
        if not placements:
            return AlignmentRecord(query_name=name, mapped=False,
                                   read_codes=codes, mate=mate)
        best = placements[0]
        mapq = 60
        if len(placements) > 1 and placements[1].score >= best.score - 4:
            mapq = 3
        self.stats.reads_mapped += 1
        return self._to_record(best, codes, name, mate, mapq)

    # -- paired-end ----------------------------------------------------------

    def map_pair(self, read1: np.ndarray, read2: np.ndarray,
                 name: str = "pair",
                 placements: Optional[Sequence[List[_Placement]]] = None
                 ) -> MappingResult:
        """Map a pair; the result's stage is ``proper_pair``, ``mapped``
        (at least one mate placed on its own) or ``unmapped``.

        Strategy: fully map read 1, then place read 2 by *mate rescue* —
        a banded alignment inside the window implied by the insert-size
        constraint (both reads of a proper pair are within ``max_insert``).
        If rescue fails, read 2 is mapped independently; the final records
        are the best-scoring consistent combination.

        ``placements`` is :meth:`map_pairs` handing over what it seeded,
        chained and aligned for the whole chunk; alone, the pair is a
        chunk of one.
        """
        self.stats.pairs_seen += 1
        self.stats.reads_seen += 2
        if placements is None:
            placements = self._placements([read1, read2])
        placements1, placements2 = placements
        with span("mm2.pairing"):
            combo = self._best_combo(placements1, placements2,
                                     len(read1), len(read2))
        if combo is None and self.config.mate_rescue:
            rescued = self._try_rescue(read1, read2, placements1,
                                       placements2)
            if rescued is not None:
                combo = rescued
                self.stats.mate_rescues += 1
        if combo is None:
            record1 = self._best_single(placements1, read1, f"{name}/1", 1)
            record2 = self._best_single(placements2, read2, f"{name}/2", 2)
            stage = ("mapped" if record1.mapped or record2.mapped
                     else "unmapped")
        else:
            place1, place2 = combo
            self.stats.pairs_proper += 1
            self.stats.reads_mapped += 2
            record1 = self._to_record(place1, read1, f"{name}/1", 1, 60)
            record2 = self._to_record(place2, read2, f"{name}/2", 2, 60)
            record1.set_mate(record2)
            record2.set_mate(record1)
            stage = "proper_pair"
        return MappingResult(name=name, records=(record1, record2),
                             engine="mm2", stage=stage,
                             joint_score=record1.score + record2.score)

    # -- batched entry points ------------------------------------------------

    def map_pairs(self, pairs: List[Tuple[np.ndarray, np.ndarray, str]]
                  ) -> List[MappingResult]:
        """Map a chunk of ``(read1, read2, name)`` tuples in input order.

        The chunk call the ``mm2`` engine and the GenPair fallback both
        enter through: every read and strand of the chunk is seeded,
        chained and chain-aligned in one pass, then each pair is paired
        and rescued on its own.  Results and :attr:`stats` are exactly
        those of repeated :meth:`map_pair` calls, whatever the chunking.
        """
        placements = self._placements([read for read1, read2, _name in pairs
                                       for read in (read1, read2)])
        return [self.map_pair(read1, read2, name,
                              placements[2 * number:2 * number + 2])
                for number, (read1, read2, name) in enumerate(pairs)]

    def map_reads(self, reads: List[Tuple[np.ndarray, str]]
                  ) -> List[AlignmentRecord]:
        """Map a chunk of single ``(codes, name)`` reads in input order."""
        placements = self._placements([codes for codes, _name in reads])
        return [self.map_read(codes, name, placements=placed)
                for (codes, name), placed in zip(reads, placements)]

    # -- pipeline stages -----------------------------------------------------

    def _placements(self, reads: Sequence[np.ndarray],
                    max_placements: int = 4) -> List[List[_Placement]]:
        """Seed, chain and align a chunk of reads; each read's best
        placements, best first.

        The chains of every read of the chunk are aligned together:
        the kernel's cost per problem falls with the stack it rides in
        (:mod:`repro.align.banded` has the curve).
        """
        chains = self._chains(reads)
        with span("mm2.alignment"):
            placed = iter(self._align_chains(
                [chain for per_read in chains for chain in per_read]))
        placements = []
        for per_read in chains:
            found = [place for place in itertools.islice(placed,
                                                         len(per_read))
                     if place is not None]
            found.sort(key=lambda p: -p.score)
            placements.append(found[:max_placements])
        return placements

    def _chains(self, reads: Sequence[np.ndarray]) -> List[list]:
        """The best ``(oriented read, strand, chain)`` triples of each
        read: one minimizer pass, one index probe and one chaining sweep
        for every read and strand of the chunk."""
        with span("mm2.seeding"):
            oriented = [strand for codes in reads
                        for strand in (codes, reverse_complement(codes))]
            anchors = self._anchors(oriented)
            self.stats.anchors_total += anchors.ref_pos.size
        with span("mm2.chaining"):
            results = chain_anchors(anchors, max_gap=self.config.max_gap,
                                    min_score=self.config.min_chain_score)
            self.stats.dp_cells_chaining += sum(result.cells
                                                for result in results)
            stranded = [[(codes, strand, chain) for chain in result.chains]
                        for codes, strand, result
                        in zip(oriented, itertools.cycle("+-"), results)]
            per_read = []
            for forward, reverse in zip(stranded[::2], stranded[1::2]):
                chains = forward + reverse
                chains.sort(key=lambda item: -item[2].score)
                per_read.append(chains[:self.config.max_chains_tried])
        return per_read

    def _anchors(self, oriented: Sequence[np.ndarray]) -> AnchorColumns:
        """Every minimizer hit of every oriented read: one chaining
        problem per row."""
        read_pos, hashes, row = extract_minimizers_rows(
            oriented, self.config.k, self.config.w)
        which, ref_pos = self.index.lookup_all(hashes)
        return AnchorColumns(ref_pos=ref_pos, read_pos=read_pos[which],
                             length=np.full(which.size, self.config.k,
                                            dtype=np.int64),
                             problem=row[which], problems=len(oriented))

    def _align_chains(self, chains: list) -> List[Optional[_Placement]]:
        """Banded alignment in the window each chain implies: a
        placement or ``None`` per chain, in order."""
        pad = self.config.window_pad
        windows = [self.reference.window(int(chain.diagonal), len(oriented),
                                         pad, pad,
                                         min_length=len(oriented) // 2)
                   for oriented, _strand, chain in chains]
        placements: List[Optional[_Placement]] = [None] * len(chains)
        for members, reads, refs, diagonal, bandwidth in stack_problems(
                [None if window is None else
                 (oriented, window[0], window[3], self.config.bandwidth)
                 for (oriented, _strand, _chain), window
                 in zip(chains, windows)]):
            stack = align_banded(reads, refs, scheme=self.scheme,
                                 diagonal=diagonal, bandwidth=bandwidth)
            for k, result in zip(members, stack):
                self.stats.dp_cells_alignment += result.cells
                if result.score >= 0:
                    _, chromosome, window_start, _ = windows[k]
                    placements[k] = _Placement(
                        score=result.score, chromosome=chromosome,
                        position=window_start + result.ref_start,
                        strand=chains[k][1], alignment=result)
        return placements

    # -- pairing -------------------------------------------------------------

    def _best_combo(self, placements1: List[_Placement],
                    placements2: List[_Placement], len1: int, len2: int
                    ) -> Optional[Tuple[_Placement, _Placement]]:
        """Best properly-oriented combination within the insert bound."""
        best = None
        for place1 in placements1:
            for place2 in placements2:
                if not self._proper(place1, place2, len1):
                    continue
                score = place1.score + place2.score
                if best is None or score > best[0]:
                    best = (score, (place1, place2))
        return None if best is None else best[1]

    def _proper(self, place1: _Placement, place2: _Placement,
                read_length: int) -> bool:
        if place1.strand == place2.strand \
                or place1.chromosome != place2.chromosome:
            return False
        if place1.strand == "+":
            gap = place2.position - place1.position
        else:
            gap = place1.position - place2.position
        return -read_length // 2 <= gap <= self.config.max_insert

    def _try_rescue(self, read1: np.ndarray, read2: np.ndarray,
                    placements1: List[_Placement],
                    placements2: List[_Placement]
                    ) -> Optional[Tuple[_Placement, _Placement]]:
        """Rescue the unplaced mate near the placed one."""
        if placements1:
            anchor = placements1[0]
            mate = self._rescue_mate(anchor, read2)
            if mate is not None:
                return anchor, mate
        if placements2:
            anchor = placements2[0]
            mate = self._rescue_mate(anchor, read1)
            if mate is not None:
                return mate, anchor
        return None

    def _rescue_mate(self, anchor: _Placement, mate_codes: np.ndarray
                     ) -> Optional[_Placement]:
        """Banded search for the mate in the insert-size window."""
        mate_strand = "-" if anchor.strand == "+" else "+"
        oriented = (reverse_complement(mate_codes) if mate_strand == "-"
                    else mate_codes)
        # The insert span on the anchor's chromosome: downstream of a
        # ``+`` anchor, upstream of (and overlapping) a ``-`` one.
        before, after = ((0, self.config.max_insert) if anchor.strand == "+"
                         else (self.config.max_insert, len(mate_codes)))
        found = self.reference.window(anchor.position, len(mate_codes),
                                      before, after,
                                      min_length=len(mate_codes),
                                      chromosome=anchor.chromosome)
        if found is None:
            return None
        window, chromosome, start, _ = found
        # Wide band: the mate can sit anywhere in the insert window.
        result = align_banded(oriented, window, scheme=self.scheme,
                              diagonal=len(window) // 2,
                              bandwidth=len(window) // 2 + 8)
        self.stats.dp_cells_alignment += result.cells
        min_score = int(self.config.min_score_fraction
                        * self.scheme.perfect_score(len(mate_codes)))
        if result.score < min_score:
            return None
        return _Placement(score=result.score, chromosome=chromosome,
                          position=start + result.ref_start,
                          strand=mate_strand, alignment=result)

    # -- record construction ---------------------------------------------

    def _best_single(self, placements: List[_Placement],
                     codes: np.ndarray, name: str,
                     mate: int) -> AlignmentRecord:
        min_score = int(self.config.min_score_fraction
                        * self.scheme.perfect_score(len(codes)))
        viable = [p for p in placements if p.score >= min_score]
        if not viable:
            return AlignmentRecord(query_name=name, mapped=False,
                                   read_codes=codes, mate=mate)
        self.stats.reads_mapped += 1
        return self._to_record(viable[0], codes, name, mate, 20)

    def _to_record(self, placement: _Placement, codes: np.ndarray,
                   name: str, mate: int, mapq: int) -> AlignmentRecord:
        return AlignmentRecord(query_name=name,
                               chromosome=placement.chromosome,
                               position=placement.position,
                               strand=placement.strand,
                               mapq=mapq, cigar=placement.alignment.cigar,
                               score=placement.score, read_codes=codes,
                               mate=mate, mapped=True, method=METHOD_DP)
