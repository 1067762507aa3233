"""GenPair core: the paper's primary algorithmic contribution (§4).

Subpackages by pipeline stage:

* :mod:`~repro.core.seedmap` — offline SeedMap construction (§4.2), a
  thin owner of the :class:`repro.hashing.PositionTable` that holds the
  sorted-key build, the probe and the gather;
* :mod:`~repro.core.seeding` — Partitioned Seeding (§4.3);
* :mod:`~repro.core.query` — SeedMap Query (§4.4);
* :mod:`~repro.core.pairfilter` — Paired-Adjacency Filtering (§4.5);
* :mod:`~repro.core.light_align` — Light Alignment (§4.6);
* :mod:`~repro.core.pipeline` — the end-to-end online dataflow + fallbacks;
* :mod:`~repro.core.longread` — long-read mode via Location Voting (§4.7).

One seed→candidate front-end: :func:`~repro.core.query.resolve_reads`
takes a list of reads, hashes all their seed windows with one
vectorized xxHash call (:func:`repro.hashing.hash_reads_batch`) and
resolves them against the array-backed Seed Table in one
``np.searchsorted`` probe (:meth:`SeedMap.query_batch` via
:func:`~repro.core.query.query_hash_groups`), merging the chunk's hits
into one flat sorted candidate array with per-read bounds
(:class:`~repro.core.query.QueryColumns`).
:meth:`GenPairPipeline._map_chunk` calls it on the four role sequences
of every pair of a chunk (:func:`~repro.core.seeding.pair_role_codes`);
:meth:`LongReadMapper.map_reads` on the pseudo-pair chunks of every
read of a chunk.  :meth:`~GenPairPipeline.map_pair` and
:meth:`~LongReadMapper.map_read` are chunks of one,
:meth:`~GenPairPipeline.map_pairs` /
:meth:`~GenPairPipeline.map_stream` the eager / lazy forms.  The
per-seed scalar chain (one xxHash, one :meth:`SeedMap.query` and one
``np.unique`` merge at a time) lives in ``tests/oracles/core.py`` as
the reference both are tested against.  Mapping runs in one process:
the chunks of a stream go through :meth:`GenPairPipeline._map_chunk`
one after another.
"""

from .fingerprint import IndexFingerprint
from .light_align import (EditProfile, LightAligner, LightAlignment,
                          enumerate_simple_profiles)
from .longread import LongReadMapper, LongReadStats
from .pairfilter import DEFAULT_DELTA, FilterResult, filter_adjacent
from .pipeline import (DEFAULT_BATCH_SIZE, STAGE_DP_CANDIDATE,
                       STAGE_FULL_DP, STAGE_LIGHT, STAGE_UNMAPPED,
                       GenPairConfig, GenPairPipeline, PipelineStats)
from .query import (QueryColumns, QueryResult, query_hash_groups,
                    resolve_reads)
from .seedmap import (DEFAULT_FILTER_THRESHOLD, LOCATION_ENTRY_BYTES,
                      SEED_TABLE_ENTRY_BYTES, SeedMap, SeedMapStats)
from .seeding import pair_role_codes, seed_offsets

__all__ = [
    "DEFAULT_BATCH_SIZE", "DEFAULT_DELTA", "DEFAULT_FILTER_THRESHOLD",
    "EditProfile", "IndexFingerprint",
    "FilterResult", "GenPairConfig", "GenPairPipeline",
    "LightAligner", "LightAlignment", "LOCATION_ENTRY_BYTES",
    "LongReadMapper", "LongReadStats",
    "PipelineStats", "QueryColumns", "QueryResult",
    "SEED_TABLE_ENTRY_BYTES",
    "STAGE_DP_CANDIDATE", "STAGE_FULL_DP", "STAGE_LIGHT", "STAGE_UNMAPPED",
    "SeedMap", "SeedMapStats", "enumerate_simple_profiles",
    "filter_adjacent", "pair_role_codes", "query_hash_groups",
    "resolve_reads", "seed_offsets",
]
