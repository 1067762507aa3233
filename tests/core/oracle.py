"""Scalar pair seeding and querying: the oracle the chunk dataflow is
tested against.

This is the pair-by-pair path ``GenPairPipeline.map_pair`` ran before
the chunked dataflow became the only one: every seed hashed on its own
(``hash_seed`` via :func:`repro.core.partition_read`), looked up on its
own (``SeedMap.query`` via :func:`repro.core.query_read`) and each
read's hits merged with ``np.unique``.  It defines what
``GenPairPipeline._resolve_chunk`` must reproduce exactly — candidates
(values and dtype), seed hits, locations fetched, Seed Table accesses —
and, fed through the pipeline's own per-pair decision
(``_map_prepared``), what every chunk size must map to.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core import (QueryResult, Seed, SeedMap, pair_role_codes,
                        partition_read, query_read)


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
                 ) -> Tuple[Tuple[QueryResult, QueryResult], ...]:
    """One pair's queries, one ``(read1, read2)`` result per orientation
    — the ``prepared`` argument of ``GenPairPipeline._map_prepared``."""
    config = pipeline.config
    return tuple(
        query_pair(pipeline.seedmap, seeds.read1, seeds.read2)
        for seeds in partition_pair(read1, read2, config.seed_length,
                                    config.seeds_per_read))


def resolve_chunk(pipeline, items) -> List[QueryResult]:
    """What ``pipeline._resolve_chunk(items)`` must return: four results
    per pair, in role order (fr read1, fr read2, rf read1, rf read2)."""
    return [result
            for read1, read2, _ in items
            for orientation in prepare_pair(pipeline, read1, read2)
            for result in orientation]


def map_pairs(pipeline, items) -> list:
    """Map ``(read1, read2, name)`` items one pair at a time: scalar
    seeding and querying, then the pipeline's own per-pair decision."""
    return [pipeline._map_prepared(read1, read2, name,
                                   prepare_pair(pipeline, read1, read2))
            for read1, read2, name in items]
