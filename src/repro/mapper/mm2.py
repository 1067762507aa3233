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
chaining problem per read and strand; the chains are read back as score
and diagonal columns, never as objects) and aligns the kept chains of
every read in one :func:`~repro.align.banded.align_problems` call (each
band cut to its span, so a window clamped at a chromosome end shares the
others' sweep; each distinct problem swept once).
Pairing runs pair by pair; mate rescue runs in two chunk-wide waves —
read 2 near read 1's best placement, then read 1 near read 2's for the
pairs still open — and aligns only the diagonals of the insert window
that a q-gram bound cannot rule out (:class:`_RescueSearch`; a wave's
votes come from one q-gram table over all its windows,
:func:`_wave_votes`): most rescues are settled with no DP or in one
shared sweep of a narrow band, and only the rest pay for a widened or
the whole-window band, all in one more call per wave, with exactly the
whole-window band's result.  The kernel's tracebacks run
on demand: pairing reads every placement's position, which walks its
traceback, but only a placement that becomes a record has its CIGAR
built, and a narrow band's result is shifted into its window without a
walk.  What shares a sweep never changes a result, so every record
and counter is that of a :meth:`~Mm2LikeMapper.map_pair` loop, which is
a chunk of one.  Each pair comes out as a
:class:`~repro.genome.results.MappingResult` (stage ``proper_pair``,
``mapped`` or ``unmapped``).  The per-anchor and per-k-mer loops this
replaced, and the whole-window rescue, are the oracles in
``tests/oracles/align.py``.

Coordinates: minimizer hits, anchors and chain diagonals are *linear*;
:meth:`~repro.genome.ReferenceGenome.windows` turns every chain's
diagonal into a chromosome and a window in one call, and a placement
is ``(chromosome, position)`` from there on — pairing compares
chromosomes before gaps, rescue searches the anchor's chromosome,
records copy the placement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..align.banded import align_problems
from ..align.chaining import AnchorColumns, chain_anchors
from ..align.dp import AlignmentResult
from ..align.scoring import DEFAULT_SCHEME, ScoringScheme
from ..genome.reference import ReferenceGenome
from ..genome.results import MappingResult
from ..genome.sam import METHOD_DP, AlignmentRecord, mapped_pair
from ..genome.sequence import (ALPHABET_SIZE, reverse_complement,
                               reverse_complements)
from ..hashing import PositionTable, ragged_ranges
from ..obs import span
from .index import MinimizerIndex
from .minimizer import K, W, extract_minimizers_rows

#: Chaining: anchors further apart than this on either sequence start a
#: new chain, and chains scoring below the floor are dropped.
MAX_GAP = 500
MIN_CHAIN_SCORE = 20.0
#: Chains of a read aligned, best first per strand.
MAX_CHAINS_TRIED = 4
#: Half-width, in diagonals, of every chain alignment's band.
BANDWIDTH = 16
#: Reference bases either side of a chain's implied read span.
WINDOW_PAD = 32
#: Longest proper-pair insert, and so the span a mate rescue searches.
MAX_INSERT = 1000
#: Alignments below this fraction of the perfect score are unmapped.
MIN_SCORE_FRACTION = 0.4
#: Length of the q-grams a mate rescue votes with (:class:`_RescueSearch`
#: derives it).
RESCUE_K = 7
#: Half-width, in diagonals, of a rescue's first band: the chain
#: alignments' :data:`BANDWIDTH`.  One shape for every rescue of a read
#: length, so a wave's rescues share sweeps.
RESCUE_BAND = BANDWIDTH


@dataclass
class MapperStats:
    """DP accounting and outcome counters."""

    reads_seen: int = 0
    reads_mapped: int = 0
    pairs_seen: int = 0
    pairs_proper: int = 0
    mate_rescues: int = 0
    #: Mates searched for near an anchor; ``mate_rescues`` of the pairs
    #: were placed that way.
    rescue_attempts: int = 0
    #: Rescue attempts no q-gram bound could narrow: the whole insert
    #: window was aligned.
    rescue_whole_window: int = 0
    anchors_total: int = 0
    dp_cells_chaining: int = 0
    dp_cells_alignment: int = 0


@dataclass(frozen=True)
class _Placement:
    """Internal: one scored candidate placement of a read; ``oriented``
    is the read as aligned (reverse-complemented on ``-``)."""

    score: int
    chromosome: str
    position: int
    strand: str
    alignment: AlignmentResult
    oriented: np.ndarray


@dataclass(frozen=True)
class _Paired:
    """Internal: what :meth:`Mm2LikeMapper.map_pairs` hands
    :meth:`~Mm2LikeMapper.map_pair` for one pair — each read's
    placements, and the proper combination (``None`` without one),
    found by mate rescue or not."""

    placements1: List[_Placement]
    placements2: List[_Placement]
    combo: Optional[Tuple[_Placement, _Placement]]
    rescued: bool


def _qgrams(sequences: Sequence[np.ndarray]
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2-bit-packed :data:`RESCUE_K`-mers of every sequence that hold
    no ``N``, packed over the sequences laid end to end: ``(key, start
    within its sequence, sequence)`` per k-mer."""
    lengths = np.array([len(codes) for codes in sequences], dtype=np.int64)
    codes = np.concatenate(sequences)
    count = codes.size - RESCUE_K + 1
    if count <= 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    keys = np.zeros(count, dtype=np.int64)
    for offset in range(RESCUE_K):
        keys <<= 2
        keys |= codes[offset:offset + count] & 3
    ambiguous = np.concatenate(([0], np.cumsum(codes >= ALPHABET_SIZE)))
    owner, within = ragged_ranges(lengths)
    # A k-mer of its own sequence, and free of ``N``.
    where = np.flatnonzero(
        (within[:count] + RESCUE_K <= lengths[owner[:count]])
        & (ambiguous[RESCUE_K:] == ambiguous[:count]))
    return keys[where], within[where], owner[where]


def _wave_votes(problems: Sequence[Tuple[np.ndarray, np.ndarray]]
                ) -> List[Tuple[np.ndarray, int]]:
    """The q-gram votes of each ``(mate, window)`` of a rescue wave:
    ``votes[d + n]`` counts the exact :data:`RESCUE_K`-mer matches on
    diagonal ``d`` (window position - mate position), next to the mate's
    count of valid k-mers.  One :class:`PositionTable` holds every
    window's k-mers under a ``(rescue, k-mer)`` key and one gather finds
    every mate's matches in its own window."""
    if not problems:
        return []
    mates, windows = zip(*problems)
    mate_keys, mate_starts, mate_owner = _qgrams(mates)
    window_keys, window_starts, window_owner = _qgrams(windows)
    table, _ = PositionTable.build(
        window_keys | window_owner << 2 * RESCUE_K, window_starts)
    which, positions = table.gather(mate_keys | mate_owner << 2 * RESCUE_K)
    n = np.array([len(mate) for mate in mates], dtype=np.int64)
    spans = n + [len(window) + 1 for window in windows]
    bases = np.cumsum(spans) - spans
    owner = mate_owner[which]
    votes = np.bincount(bases[owner] + n[owner] + positions
                        - mate_starts[which], minlength=int(spans.sum()))
    valid = np.bincount(mate_owner, minlength=len(problems)).tolist()
    return [(votes[base:base + span], count) for base, span, count
            in zip(bases.tolist(), spans.tolist(), valid)]


class _RescueSearch:
    """One mate rescue: the mate oriented for its anchor, the insert
    window on the anchor's chromosome, and the q-gram votes that bound
    where in the window an alignment of the mate can lie.

    The result must be exactly that of the *whole-window band* (diagonal
    ``m // 2``, half-width ``m // 2 + 8`` over the ``m``-base window),
    which holds the window's diagonals ``low..high`` — ``-8`` (a few read
    bases hanging off the window's start) to ``m - 1``.

    *The bound.*  An alignment of the ``n``-base mate loses ``P =
    perfect - score`` to its edits.  A mismatch costs ``match +
    mismatch`` (10) and breaks at most ``k`` of the mate's k-mers; a
    deletion run of ``l`` bases costs ``12 + 2l`` and breaks ``k - 1``;
    an insertion run costs ``12 + 4l`` (its bases lose their match too)
    and breaks ``k + l - 1``, never more than ``k`` per 10 points for
    ``k = 7``.  So of the ``valid`` k-mers (those without an ``N``) at
    least ``t(P) = valid - k·⌊P/10⌋`` match exactly, each a vote on the
    alignment's diagonal.  Each gap base moves the alignment one
    diagonal and the gaps cost at least ``gap_open + gap_extend·G`` for
    ``G`` gap bases, so the alignment spans at most ``D(P) = max(0, (P -
    gap_open) // gap_extend)`` diagonals past its first.  Every
    alignment scoring at least ``s`` therefore lies inside a *hot
    window*: ``D + 1`` consecutive diagonals holding ``t`` votes or
    more.  At the 40% floor a 150 bp mate has ``P = 180``, so ``t = (151
    - k) - 18k``: 18 at ``k = 7``, -1 at ``k = 8`` — 7
    (:data:`RESCUE_K`) is the largest ``k`` that can still rule anything
    out at the floor.

    *The first band.*  :data:`RESCUE_BAND` = 16 is the band of every
    chain alignment (:data:`BANDWIDTH`): a 150 x 33-cell
    problem that costs ~0.23 ms in a stack of 16 against ~3.8 ms for the
    whole 150 x 1150 window alone, and wide enough to hold every hot
    window of a mate drifting up to 16 diagonals (``P <= 44``, every
    Table 1 profile) around the most-voted diagonal.

    *Certified bands.*  When every alignment scoring at least ``s`` lies
    inside a band and the band's best is ``s``, the whole-window best is
    ``s`` too and every co-optimal path lies in the band, so the
    leftmost best end cell and every traceback tie (which compare only
    values on co-optimal paths) are the whole window's: the band's
    result *is* the whole window's.  The same holds for a band whose best
    is below the floor and that holds every alignment reaching it: both
    fail.  Hot windows are clipped to ``low..high`` first — an
    alignment the whole-window band cannot hold is no competitor — and a
    band never reaches below ``low``, so it holds no path the whole
    window lacks.
    """

    def __init__(self, oriented: np.ndarray, window: np.ndarray,
                 chromosome: str, start: int, strand: str, min_score: int,
                 scheme: ScoringScheme, votes: np.ndarray,
                 valid: int) -> None:
        """``votes`` and ``valid`` are the mate's :func:`_wave_votes`."""
        self.oriented, self.window = oriented, window
        self.chromosome, self.start, self.strand = chromosome, start, strand
        self.min_score = min_score
        self.scheme = scheme
        n, m = len(oriented), len(window)
        self.wide = (m // 2, m // 2 + 8)
        self.low, self.high = max(self.wide[0] - self.wide[1], -n), m - 1
        self._cumulative = np.concatenate(([0], np.cumsum(votes)))
        self._valid = valid
        self.top = int(votes.argmax()) - n

    def hot_span(self, score: int) -> Optional[Tuple[int, int]]:
        """The diagonals ``(lo, hi)``, clipped to ``low..high``, of every
        hot window for alignments scoring at least ``score``; ``None``
        when there is none, so no such alignment exists."""
        n = len(self.oriented)
        penalty = self.scheme.perfect_score(n) - score
        drift = max(0, (penalty - self.scheme.gap_open)
                    // self.scheme.gap_extend)
        need = self._valid - RESCUE_K * (penalty
                                         // self.scheme.substitution_cost())
        starts = np.arange(max(self.low - drift, -n), self.high + 1)
        ends = np.minimum(starts + drift + 1 + n, self._cumulative.size - 1)
        hot = starts[self._cumulative[ends]
                     - self._cumulative[starts + n] >= need]
        if not hot.size:
            return None
        return max(int(hot[0]), self.low), min(int(hot[-1]) + drift,
                                                self.high)

    def first_band(self) -> Optional[Tuple[int, tuple]]:
        """``RESCUE_BAND`` diagonals either side of the most-voted one,
        clamped into the window: ``(offset, problem)``, the whole-window
        problem of the band over diagonals ``offset..offset +
        2·RESCUE_BAND`` (inside ``0..m - n``), or ``None`` when the
        window is too short to hold one.  The band lies inside its
        window, so :func:`~repro.align.banded.align_problems` cuts it to
        its span and every rescue of a read length shares a shape."""
        n = len(self.oriented)
        if len(self.window) < n + 2 * RESCUE_BAND:
            return None
        offset = min(max(self.top - RESCUE_BAND, 0),
                     len(self.window) - n - 2 * RESCUE_BAND)
        return offset, (self.oriented, self.window, offset + RESCUE_BAND,
                        RESCUE_BAND)

    def band(self, lo: int, hi: int) -> tuple:
        """The problem of a band over diagonals ``lo..hi`` of the whole
        window (``lo`` exactly, ``hi`` or one more)."""
        bandwidth = max(1, -(-(hi - lo) // 2))
        return self.oriented, self.window, lo + bandwidth, bandwidth

    def placement(self, result: Optional[AlignmentResult]
                  ) -> Optional[_Placement]:
        if result is None or result.score < self.min_score:
            return None
        return _Placement(score=result.score, chromosome=self.chromosome,
                          position=self.start + result.ref_start,
                          strand=self.strand, alignment=result,
                          oriented=self.oriented)


class Mm2LikeMapper:
    """Minimizer seed-chain-align mapper with paired-end support.

    ``index`` (built from ``reference`` when not given) must have been
    built with :data:`~repro.mapper.minimizer.K` and
    :data:`~repro.mapper.minimizer.W`: a table of other minimizers would
    find no anchors, so a mismatch raises :class:`ValueError`.
    """

    def __init__(self, reference: ReferenceGenome,
                 index: Optional[MinimizerIndex] = None,
                 scheme: ScoringScheme = DEFAULT_SCHEME) -> None:
        if index is None:
            index = MinimizerIndex.build(reference)
        elif (index.k, index.w) != (K, W):
            raise ValueError(
                f"minimizer index has k={index.k}, w={index.w} but the "
                f"mapper seeds with k={K}, w={W}")
        self.reference = reference
        self.scheme = scheme
        self.index = index
        self.stats = MapperStats()

    # -- paired-end ----------------------------------------------------------

    def map_pair(self, read1: np.ndarray, read2: np.ndarray,
                 name: str = "pair", paired: Optional[_Paired] = None
                 ) -> MappingResult:
        """Map a pair; the result's stage is ``proper_pair``, ``mapped``
        (at least one mate placed on its own) or ``unmapped``.

        Strategy: the best properly-oriented combination of the two
        reads' own placements; failing one, *mate rescue* — read 2
        searched for in the window the insert-size constraint implies
        next to read 1's best placement (both reads of a proper pair are
        within :data:`MAX_INSERT`), then read 1 next to read 2's.  If rescue
        fails too, each read keeps its own best placement.

        ``paired`` is :meth:`map_pairs` handing over what it seeded,
        chained, aligned, paired and rescued for the whole chunk; alone,
        the pair is a chunk of one.
        """
        self.stats.pairs_seen += 1
        self.stats.reads_seen += 2
        if paired is None:
            paired, = self._pair_up([(read1, read2, name)],
                                    self._placements([read1, read2]))
        combo = paired.combo
        self.stats.mate_rescues += paired.rescued
        if combo is None:
            record1 = self._best_single(paired.placements1, read1,
                                        f"{name}/1", 1)
            record2 = self._best_single(paired.placements2, read2,
                                        f"{name}/2", 2)
            stage = ("mapped" if record1.mapped or record2.mapped
                     else "unmapped")
        else:
            self.stats.pairs_proper += 1
            self.stats.reads_mapped += 2
            record1, record2 = mapped_pair(name, 60, *(
                (place.chromosome, place.position, place.strand,
                 place.alignment.cigar, place.score, place.oriented,
                 METHOD_DP) for place in combo))
            stage = "proper_pair"
        return MappingResult(name=name, records=(record1, record2),
                             engine="mm2", stage=stage,
                             joint_score=record1.score + record2.score)

    def map_pairs(self, pairs: List[Tuple[np.ndarray, np.ndarray, str]]
                  ) -> List[MappingResult]:
        """Map a chunk of ``(read1, read2, name)`` tuples in input order.

        The chunk call the ``mm2`` engine and the GenPair fallback both
        enter through: every read and strand of the chunk is seeded,
        chained and chain-aligned in one pass, every pair paired, and
        the mates of the pairs left open rescued in two chunk-wide
        waves.  Results and :attr:`stats` are exactly those of repeated
        :meth:`map_pair` calls, whatever the chunking.
        """
        placements = self._placements([read for read1, read2, _name in pairs
                                       for read in (read1, read2)])
        return [self.map_pair(read1, read2, name, paired)
                for (read1, read2, name), paired
                in zip(pairs, self._pair_up(pairs, placements))]

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
        """The best ``(oriented read, strand, diagonal)`` chains of each
        read: one minimizer pass, one index probe and one chaining sweep
        for every read and strand of the chunk, read as columns."""
        with span("mm2.seeding"):
            oriented = [strand for pair in zip(reads,
                                               reverse_complements(reads))
                        for strand in pair]
            anchors = self._anchors(oriented)
            self.stats.anchors_total += anchors.ref_pos.size
        with span("mm2.chaining"):
            chains = chain_anchors(anchors, max_gap=MAX_GAP,
                                   min_score=MIN_CHAIN_SCORE)
            self.stats.dp_cells_chaining += chains.cells
            # Per read: the forward chains then the reverse ones, each
            # best first, stably sorted by score.
            read, strand = np.divmod(chains.problem, 2)
            order = np.lexsort((chains.rank, strand, -chains.score, read))
            _, within = ragged_ranges(np.bincount(read, minlength=len(reads)))
            picked = order[within < MAX_CHAINS_TRIED]
            per_read: List[list] = [[] for _ in reads]
            for problem, diagonal in zip(chains.problem[picked].tolist(),
                                         chains.diagonal[picked].tolist()):
                per_read[problem // 2].append(
                    (oriented[problem], "+-"[problem % 2], diagonal))
        return per_read

    def _anchors(self, oriented: Sequence[np.ndarray]) -> AnchorColumns:
        """Every minimizer hit of every oriented read: one chaining
        problem per row."""
        read_pos, hashes, row = extract_minimizers_rows(oriented)
        which, ref_pos = self.index.lookup_all(hashes)
        return AnchorColumns(ref_pos=ref_pos, read_pos=read_pos[which],
                             length=np.full(which.size, K, dtype=np.int64),
                             problem=row[which], problems=len(oriented))

    def _align_chains(self, chains: list) -> List[Optional[_Placement]]:
        """Banded alignment in the window each ``(oriented read, strand,
        diagonal)`` chain implies: a placement or ``None`` per chain, in
        order.  One :meth:`~repro.genome.ReferenceGenome.windows` call
        finds every chain's window."""
        reference = self.reference
        lengths = np.array([len(oriented) for oriented, _, _ in chains],
                           dtype=np.int64)
        index, low, high = reference.windows(
            np.array([diagonal for _, _, diagonal in chains],
                     dtype=np.int64),
            lengths, WINDOW_PAD, WINDOW_PAD, min_length=lengths // 2)
        codes, found = reference.linear_codes(), index.tolist()
        results = self._align(
            [None if chromosome < 0 else
             (oriented, codes[begin:end], diagonal - begin, BANDWIDTH)
             for (oriented, _strand, diagonal), chromosome, begin, end
             in zip(chains, found, low.tolist(), high.tolist())])
        names = reference.names
        starts = (low - reference.offsets[index]).tolist()
        placements: List[Optional[_Placement]] = [None] * len(chains)
        for k, result in enumerate(results):
            if result is not None and result.score >= 0:
                oriented, strand, _diagonal = chains[k]
                placements[k] = _Placement(
                    score=result.score, chromosome=names[found[k]],
                    position=starts[k] + result.ref_start,
                    strand=strand, alignment=result, oriented=oriented)
        return placements

    def _align(self, problems: Sequence[Optional[tuple]]
               ) -> List[Optional[AlignmentResult]]:
        """:func:`~repro.align.banded.align_problems`, every problem's
        cells charged to ``dp_cells_alignment``."""
        results = align_problems(problems, self.scheme)
        self.stats.dp_cells_alignment += sum(
            result.cells for result in results if result is not None)
        return results

    # -- pairing -------------------------------------------------------------

    def _pair_up(self, pairs: Sequence[Tuple[np.ndarray, np.ndarray, str]],
                 placements: Sequence[List[_Placement]]) -> List[_Paired]:
        """Pair every pair of a chunk, then rescue the mates of the pairs
        left without a proper combination in two waves: read 2 near read
        1's best placement, then read 1 near read 2's for the pairs still
        open — the order one pair alone tries them in."""
        combos = []
        for (read1, read2, _name), placed1, placed2 in zip(
                pairs, placements[::2], placements[1::2]):
            with span("mm2.pairing"):
                combos.append(self._best_combo(placed1, placed2,
                                               len(read1), len(read2)))
        rescued = [False] * len(pairs)
        for side in (0, 1):
            waiting = [number for number, combo in enumerate(combos)
                       if combo is None and placements[2 * number + side]]
            if not waiting:
                continue
            anchors = [placements[2 * number + side][0]
                       for number in waiting]
            with span("mm2.rescue"):
                mates = self._rescue([(anchor, pairs[number][1 - side])
                                      for anchor, number
                                      in zip(anchors, waiting)])
            for number, anchor, mate in zip(waiting, anchors, mates):
                if mate is not None:
                    combos[number] = ((anchor, mate) if side == 0
                                      else (mate, anchor))
                    rescued[number] = True
        return [_Paired(placed1, placed2, combo, was_rescued)
                for placed1, placed2, combo, was_rescued in zip(
                    placements[::2], placements[1::2], combos, rescued)]

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
        return -read_length // 2 <= gap <= MAX_INSERT

    def _rescue(self, jobs: Sequence[Tuple[_Placement, np.ndarray]]
                ) -> List[Optional[_Placement]]:
        """Search for each ``(anchor, mate)``'s mate in the insert window
        next to its anchor: one wave of a chunk's rescues, each result
        exactly the whole-window band's (:class:`_RescueSearch`).

        A rescue with no hot window at the score floor fails with no DP.
        The others align a :data:`RESCUE_BAND` band around their
        most-voted diagonal, all in one sweep per read length; a band's
        result stands when every hot window for the score it reached
        lies inside it.  Otherwise the band widens once to the hot
        windows for that score (or the floor, if higher): those hold
        every alignment that could beat or tie it, so the widened result
        stands.  Only a rescue whose hot windows cover the whole window
        runs the whole-window band; it shares the widened bands' call.
        """
        self.stats.rescue_attempts += len(jobs)
        searches = self._rescue_searches(jobs)
        results: List[Optional[AlignmentResult]] = [None] * len(jobs)
        # No hot window at the floor: the rescue cannot succeed.
        live = [number for number, search in enumerate(searches)
                if search is not None
                and search.hot_span(search.min_score) is not None]
        firsts = [searches[number].first_band() for number in live]
        narrow = self._align([None if first is None else first[1]
                              for first in firsts])
        wider = []
        for number, first, result in zip(live, firsts, narrow):
            search = searches[number]
            reached = search.min_score if result is None \
                else max(result.score, search.min_score)
            # Never None: the band's own alignment, or the floor's hot
            # window that kept the rescue live, lies in a hot window.
            hot = search.hot_span(reached)
            if first is not None and first[0] <= hot[0] \
                    and hot[1] <= first[0] + 2 * RESCUE_BAND:
                results[number] = result
            elif hot != (search.low, search.high):
                wider.append((number, search.band(*hot)))
            else:
                self.stats.rescue_whole_window += 1
                wider.append((number, (search.oriented, search.window,
                                       *search.wide)))
        for (number, _problem), result in zip(wider, self._align(
                [problem for _number, problem in wider])):
            results[number] = result
        return [None if search is None else search.placement(result)
                for search, result in zip(searches, results)]

    def _rescue_searches(self, jobs: Sequence[Tuple[_Placement, np.ndarray]]
                         ) -> List[Optional[_RescueSearch]]:
        """Each ``(anchor, mate)``'s search, its votes from one
        :func:`_wave_votes` over the wave; ``None`` where no window
        fits."""
        found = [self._rescue_window(anchor, mate) for anchor, mate in jobs]
        votes = iter(_wave_votes([(oriented, window) for oriented, window,
                                  *_ in filter(None, found)]))
        return [None if job is None else
                _RescueSearch(*job, self.scheme, *next(votes))
                for job in found]

    def _rescue_window(self, anchor: _Placement, mate_codes: np.ndarray
                       ) -> Optional[tuple]:
        """The mate oriented opposite its anchor and the insert window
        on the anchor's chromosome, as :class:`_RescueSearch` takes them
        (up to ``scheme``); ``None`` where no window fits, and for an
        empty mate, which has no alignment to find."""
        if not len(mate_codes):
            return None
        mate_strand = "-" if anchor.strand == "+" else "+"
        oriented = (reverse_complement(mate_codes) if mate_strand == "-"
                    else mate_codes)
        # The insert span on the anchor's chromosome: downstream of a
        # ``+`` anchor, upstream of (and overlapping) a ``-`` one.
        before, after = ((0, MAX_INSERT) if anchor.strand == "+"
                         else (MAX_INSERT, len(mate_codes)))
        found = self.reference.window(anchor.position, len(mate_codes),
                                      before, after,
                                      min_length=len(mate_codes),
                                      chromosome=anchor.chromosome)
        if found is None:
            return None
        window, chromosome, start, _ = found
        return (oriented, window, chromosome, start, mate_strand,
                self._min_score(len(mate_codes)))

    # -- record construction ---------------------------------------------

    def _best_single(self, placements: List[_Placement],
                     codes: np.ndarray, name: str,
                     mate: int) -> AlignmentRecord:
        min_score = self._min_score(len(codes))
        viable = [p for p in placements if p.score >= min_score]
        if not viable:
            return AlignmentRecord(query_name=name, mapped=False,
                                   read_codes=codes, mate=mate)
        self.stats.reads_mapped += 1
        best = viable[0]
        return AlignmentRecord(name, best.chromosome, best.position,
                               best.strand, 20, best.alignment.cigar,
                               best.score, best.oriented, mate, True,
                               METHOD_DP)

    def _min_score(self, length: int) -> int:
        """The score floor of a ``length``-base read."""
        return int(MIN_SCORE_FRACTION * self.scheme.perfect_score(length))

