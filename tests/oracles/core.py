"""The scalar seed→candidate chain: the oracle of ``resolve_reads``.

This is the per-seed path that ran under ``src/`` before the chunk
resolver (:func:`repro.core.query.resolve_reads`) became the only
front-end: every seed hashed on its own (pure-Python :func:`xxhash32`
of the 2-bit packed window, :func:`hash_seed`), looked up on its own
(``SeedMap.query``) and each read's hits merged with ``np.unique``
(:func:`query_read`).  It defines what ``resolve_reads`` must reproduce
exactly — candidates (values and dtype), seed hits, locations fetched,
Seed Table accesses — read by read; fed through the pipeline's own
decision on a chunk of one (``_map_resolved``), what every GenPair chunk
size must map to; and, through the scalar :func:`longread_votes`, what
the long-read mode must vote.

The chain imports no hashing or query function from the package — only
``SeedMap``, ``QueryResult``, ``seed_offsets`` and ``pair_role_codes``
(plus ``filter_adjacent`` for the long-read vote, which is downstream
of the chain).

Light alignment has its scalar form here too: :class:`ScalarLightAligner`
walks the profile lattice one profile and one frame at a time, an
``argmin`` over the split positions per indel frame and an exact
mismatch-count test per profile, with the per-base
:func:`mask_to_cigar` loop.  It shares the lattice (``profiles_for``)
with the package's ``LightAligner`` and defines what the run-table
kernel must return for every attempt: ``None``, or the same score,
CIGAR, ``ref_start`` and profile.

Nothing under ``src/`` imports this module; tests import it as
``oracles.core``.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import (EditProfile, LightAligner, LightAlignment,
                        QueryResult, SeedMap, filter_adjacent,
                        pair_role_codes, seed_offsets)
from repro.genome.cigar import Cigar

# -- pure-Python xxHash32, bit-exact to the reference specification ----------
# (https://github.com/Cyan4973/xxHash; the spec vectors are in
# tests/hashing/test_xxhash.py)

_PRIME32_1 = 0x9E3779B1
_PRIME32_2 = 0x85EBCA77
_PRIME32_3 = 0xC2B2AE3D
_PRIME32_4 = 0x27D4EB2F
_PRIME32_5 = 0x165667B1
_MASK32 = 0xFFFFFFFF


def _rotl32(value: int, count: int) -> int:
    value &= _MASK32
    return ((value << count) | (value >> (32 - count))) & _MASK32


def _round(accumulator: int, lane: int) -> int:
    accumulator = (accumulator + lane * _PRIME32_2) & _MASK32
    accumulator = _rotl32(accumulator, 13)
    return (accumulator * _PRIME32_1) & _MASK32


def xxhash32(data: bytes, seed: int = 0) -> int:
    """Compute the 32-bit xxHash of ``data`` with the given ``seed``."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("xxhash32 expects bytes-like input")
    data = bytes(data)
    seed &= _MASK32
    length = len(data)
    index = 0

    if length >= 16:
        acc1 = (seed + _PRIME32_1 + _PRIME32_2) & _MASK32
        acc2 = (seed + _PRIME32_2) & _MASK32
        acc3 = seed
        acc4 = (seed - _PRIME32_1) & _MASK32
        limit = length - 16
        while index <= limit:
            lanes = struct.unpack_from("<IIII", data, index)
            acc1 = _round(acc1, lanes[0])
            acc2 = _round(acc2, lanes[1])
            acc3 = _round(acc3, lanes[2])
            acc4 = _round(acc4, lanes[3])
            index += 16
        digest = (_rotl32(acc1, 1) + _rotl32(acc2, 7)
                  + _rotl32(acc3, 12) + _rotl32(acc4, 18)) & _MASK32
    else:
        digest = (seed + _PRIME32_5) & _MASK32

    digest = (digest + length) & _MASK32

    while index + 4 <= length:
        (lane,) = struct.unpack_from("<I", data, index)
        digest = (digest + lane * _PRIME32_3) & _MASK32
        digest = (_rotl32(digest, 17) * _PRIME32_4) & _MASK32
        index += 4

    while index < length:
        digest = (digest + data[index] * _PRIME32_5) & _MASK32
        digest = (_rotl32(digest, 11) * _PRIME32_1) & _MASK32
        index += 1

    digest ^= digest >> 15
    digest = (digest * _PRIME32_2) & _MASK32
    digest ^= digest >> 13
    digest = (digest * _PRIME32_3) & _MASK32
    digest ^= digest >> 16
    return digest


# -- scalar seeding and querying ---------------------------------------------

def pack_2bit(codes: np.ndarray) -> bytes:
    """2 bits per base, 4 bases per byte, first base in the low bits."""
    values = [int(code) for code in codes]
    if any(value > 3 for value in values):
        raise ValueError("cannot 2-bit pack ambiguous bases")
    values += [0] * (-len(values) % 4)
    return bytes(values[i] | values[i + 1] << 2 | values[i + 2] << 4
                 | values[i + 3] << 6 for i in range(0, len(values), 4))


def hash_seed(codes: np.ndarray, seed: int = 0) -> int:
    """Hash one concrete seed (code array) to a 32-bit key."""
    return xxhash32(pack_2bit(codes), seed=seed)


@dataclass(frozen=True)
class Seed:
    """One extracted seed: its read offset, codes, and 32-bit hash."""

    read_offset: int
    codes: np.ndarray
    hash_value: int


def partition_read(codes: np.ndarray, seed_length: int = 50,
                   seeds_per_read: int = 3) -> List[Seed]:
    """Extract ``seeds_per_read`` non-overlapping seeds from one read.

    Seeds are placed at the first, (evenly spaced) middle, and last windows
    of the read; a 150bp read with 50bp seeds tiles exactly.  Reads shorter
    than one seed yield no seeds (they always fall back to DP), and a
    window holding an ambiguous base (code > 3) is not a seed: it cannot
    be an exact 2-bit match.
    """
    seeds = []
    for offset in seed_offsets(len(codes), seed_length, seeds_per_read):
        window = codes[offset:offset + seed_length]
        if any(int(code) > 3 for code in window):
            continue
        seeds.append(Seed(read_offset=offset, codes=window,
                          hash_value=hash_seed(window)))
    return seeds


def query_read(seedmap: SeedMap, seeds: Sequence[Seed]) -> QueryResult:
    """Query SeedMap with one read's seeds; merge into sorted candidates."""
    hit_lists = []
    locations_fetched = 0
    seed_hits = 0
    for seed in seeds:
        locations = seedmap.query(seed.hash_value)
        locations_fetched += int(locations.size)
        if locations.size:
            seed_hits += 1
            hit_lists.append(locations - seed.read_offset)
    if hit_lists:
        merged = np.unique(np.concatenate(hit_lists))
    else:
        merged = np.zeros(0, dtype=np.int64)
    return QueryResult(candidates=merged, seed_hits=seed_hits,
                       locations_fetched=locations_fetched,
                       seed_table_accesses=len(seeds))


def resolve_reads(seedmap: SeedMap, reads: Sequence[np.ndarray],
                  seed_length: int,
                  seeds_per_read: int = 3) -> List[QueryResult]:
    """What ``repro.core.resolve_reads`` must return, one read at a
    time."""
    return [query_read(seedmap, partition_read(codes, seed_length,
                                               seeds_per_read))
            for codes in reads]


# -- GenPair: the pair-by-pair path ------------------------------------------

@dataclass(frozen=True)
class PairSeeds:
    """The six seeds of a read-pair in one fragment orientation.

    ``orientation`` is ``"fr"`` when read 1 is forward / read 2 reverse
    (read 2's seeds are extracted from its reverse complement), ``"rf"``
    for the opposite fragment strand.
    """

    read1: Tuple[Seed, ...]
    read2: Tuple[Seed, ...]
    orientation: str


def partition_pair(read1_codes: np.ndarray, read2_codes: np.ndarray,
                   seed_length: int = 50,
                   seeds_per_read: int = 3) -> List[PairSeeds]:
    """Seeds for both fragment orientations of a read-pair, FR first."""
    fr1, fr2, rf1, rf2 = pair_role_codes(read1_codes, read2_codes)
    return [
        PairSeeds(
            read1=tuple(partition_read(fr1, seed_length, seeds_per_read)),
            read2=tuple(partition_read(fr2, seed_length, seeds_per_read)),
            orientation="fr"),
        PairSeeds(
            read1=tuple(partition_read(rf1, seed_length, seeds_per_read)),
            read2=tuple(partition_read(rf2, seed_length, seeds_per_read)),
            orientation="rf"),
    ]


def query_pair(seedmap: SeedMap, read1_seeds: Sequence[Seed],
               read2_seeds: Sequence[Seed]
               ) -> Tuple[QueryResult, QueryResult]:
    """Query both reads of a pair (six seed lookups)."""
    return query_read(seedmap, read1_seeds), query_read(seedmap, read2_seeds)


def prepare_pair(pipeline, read1: np.ndarray, read2: np.ndarray
                 ) -> List[QueryResult]:
    """One pair's four queries in ``pair_role_codes`` order (fr read 1,
    fr read 2, rf read 1, rf read 2) — the ``queries`` argument of
    ``GenPairPipeline._map_resolved`` for a chunk of one."""
    config = pipeline.config
    return [result
            for seeds in partition_pair(read1, read2, config.seed_length,
                                        config.seeds_per_read)
            for result in query_pair(pipeline.seedmap, seeds.read1,
                                     seeds.read2)]


def map_pairs(pipeline, items) -> list:
    """Map ``(read1, read2, name)`` items one pair at a time: scalar
    seeding and querying, then the pipeline's own decision on a chunk of
    one — so candidate DP stacks and the traditional pipeline are
    entered once per pair that needs them."""
    results = []
    for item in items:
        read1, read2, _name = item
        results.extend(pipeline._map_resolved(
            [item], prepare_pair(pipeline, read1, read2)))
    return results


# -- light alignment: the per-profile lattice walk ---------------------------

def mask_to_cigar(mask: np.ndarray) -> Cigar:
    """Convert a Hamming mask to an ``=``/``X`` CIGAR, base by base."""
    pairs = []
    if mask.size == 0:
        return Cigar(())
    current = bool(mask[0])
    run = 0
    for value in mask.tolist():
        if value == current:
            run += 1
        else:
            pairs.append((run, "=" if current else "X"))
            current = value
            run = 1
    pairs.append((run, "=" if current else "X"))
    return Cigar.from_pairs(pairs)


class ScalarLightAligner(LightAligner):
    """``LightAligner`` with the profile-by-profile ``align``."""

    def align(self, read: np.ndarray, window: np.ndarray,
              offset: int) -> Optional[LightAlignment]:
        read = np.asarray(read, dtype=np.uint8)
        length = len(read)
        if length == 0:
            return None
        max_e = self.max_edits
        # Valid shifts: ref indices [offset+s, offset+s+length) in-window.
        shift_lo = -min(max_e, offset)
        shift_hi = min(max_e, len(window) - offset - length)
        if shift_hi < 0 or shift_lo > 0:
            return None
        profiles = self.profiles_for(length)
        if profiles and profiles[0].mismatches == 0 and np.array_equal(
                read, window[offset:offset + length]):
            return LightAlignment(score=profiles[0].score,
                                  cigar=Cigar.from_pairs([(length, "=")]),
                                  ref_start=offset, profile=profiles[0])
        masks = {}
        prefix_mismatches = {}
        for shift in range(shift_lo, shift_hi + 1):
            ref_slice = window[offset + shift:offset + shift + length]
            mask = read == ref_slice
            masks[shift] = mask
            # prefix_mismatches[shift][q] = mismatches in read[0:q).
            cumulative = np.zeros(length + 1, dtype=np.int64)
            np.cumsum(~mask, out=cumulative[1:])
            prefix_mismatches[shift] = cumulative

        # (shift, suffix frame delta) -> (best split, its mismatches):
        # every profile with the same indel run asks the same question.
        splits: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for profile in profiles:
            hit = self._try_profile(profile, length, masks,
                                    prefix_mismatches, shift_lo,
                                    shift_hi, offset, splits)
            if hit is not None:
                return hit
        return None

    def _try_profile(self, profile: EditProfile, length: int, masks,
                     prefix_mismatches, shift_lo: int, shift_hi: int,
                     offset: int, splits: Dict[Tuple[int, int],
                                               Tuple[int, int]]
                     ) -> Optional[LightAlignment]:
        if profile.insertion_run == 0 and profile.deletion_run == 0:
            # Check the candidate frame first, then re-anchored frames:
            # an edit at the very read boundary can make a shifted start
            # the better (pure-mismatch) interpretation.
            for shift in sorted(range(shift_lo, shift_hi + 1), key=abs):
                if int(prefix_mismatches[shift][-1]) != profile.mismatches:
                    continue
                return LightAlignment(score=profile.score,
                                      cigar=mask_to_cigar(masks[shift]),
                                      ref_start=offset + shift,
                                      profile=profile)
            return None
        run = profile.insertion_run or profile.deletion_run
        is_insertion = profile.insertion_run > 0
        # Read bases at the split: the read prefix [0, q) aligns in mask
        # ``a``; the suffix [q + consumed, length) in mask ``b``.  An
        # insertion consumes ``run`` read bases at the split and shifts
        # the suffix frame left; a deletion consumes none and shifts it
        # right.
        suffix_delta = -run if is_insertion else run
        consumed = run if is_insertion else 0
        for a in range(shift_lo, shift_hi + 1):
            b = a + suffix_delta
            if not shift_lo <= b <= shift_hi:
                continue
            best = splits.get((a, suffix_delta))
            if best is None:
                pre_a = prefix_mismatches[a]
                pre_b = prefix_mismatches[b]
                # Mismatches as a function of the split position q:
                # prefix mismatches below q plus suffix mismatches
                # at/after q+c.
                totals = pre_a[:length - consumed + 1] \
                    + (pre_b[-1] - pre_b[consumed:])
                best_split = int(np.argmin(totals))
                best = splits[a, suffix_delta] = (best_split,
                                                  int(totals[best_split]))
            best_split, mismatches = best
            if mismatches != profile.mismatches:
                continue
            pairs = list(mask_to_cigar(masks[a][:best_split]).ops)
            pairs.append((run, "I" if is_insertion else "D"))
            pairs.extend(mask_to_cigar(
                masks[b][best_split + consumed:]).ops)
            return LightAlignment(score=profile.score,
                                  cigar=Cigar.from_pairs(pairs),
                                  ref_start=offset + a, profile=profile)
        return None


# -- long reads: the scalar Location Voting ----------------------------------

def longread_votes(mapper, codes: np.ndarray) -> Tuple[Counter, int]:
    """``(votes, pseudo_pairs)`` of one long read, the way
    ``LongReadMapper._vote`` ran before chunk-wide resolution: each
    pseudo-pair seeds and queries both its chunks on its own, so every
    interior chunk is resolved twice."""
    config = mapper.config
    length = config.chunk_length
    chunks = [(start, codes[start:start + length])
              for start in range(0, len(codes) - length + 1, length)]
    votes: Counter = Counter()
    pseudo_pairs = 0
    for (off1, chunk1), (_off2, chunk2) in zip(chunks, chunks[1:]):
        pseudo_pairs += 1
        result1 = query_read(mapper.seedmap, partition_read(
            chunk1, config.seed_length, config.seeds_per_chunk))
        result2 = query_read(mapper.seedmap, partition_read(
            chunk2, config.seed_length, config.seeds_per_chunk))
        filtered = filter_adjacent(result1.candidates, result2.candidates,
                                   delta=config.delta,
                                   boundaries=mapper._boundaries)
        for cand1, _cand2 in filtered.pairs:
            votes[(cand1 - off1) // config.vote_bin] += 1
    return votes, pseudo_pairs
