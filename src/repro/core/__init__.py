"""GenPair core: the paper's primary algorithmic contribution (§4).

Subpackages by pipeline stage:

* :mod:`~repro.core.seedmap` — offline SeedMap construction (§4.2), a
  thin owner of the :class:`repro.hashing.PositionTable` that holds the
  sorted-key build, the probe and the gather (the ``.rpix`` file format
  of :mod:`repro.index` is unchanged by that);
* :mod:`~repro.core.seeding` — Partitioned Seeding (§4.3);
* :mod:`~repro.core.query` — SeedMap Query (§4.4);
* :mod:`~repro.core.pairfilter` — Paired-Adjacency Filtering (§4.5);
* :mod:`~repro.core.light_align` — Light Alignment (§4.6);
* :mod:`~repro.core.pipeline` — the end-to-end online dataflow + fallbacks;
* :mod:`~repro.core.executor` — the persistent worker pool;
* :mod:`~repro.core.longread` — long-read mode via Location Voting (§4.7).

One seed→candidate front-end: :func:`~repro.core.query.resolve_reads`
takes a list of reads, hashes all their seed windows with one
vectorized xxHash call (:func:`repro.hashing.hash_reads_batch`) and
resolves them against the array-backed Seed Table in one
``np.searchsorted`` probe (:meth:`SeedMap.query_batch` via
:func:`~repro.core.query.query_hash_groups`), merging per-read
candidate lists chunk-wide.  :meth:`GenPairPipeline._map_chunk` calls
it on the four role sequences of every pair of a chunk
(:func:`~repro.core.seeding.pair_role_codes`);
:meth:`LongReadMapper.map_reads` on the pseudo-pair chunks of every
read of a chunk.  :meth:`~GenPairPipeline.map_pair` and
:meth:`~LongReadMapper.map_read` are chunks of one,
:meth:`~GenPairPipeline.map_pairs` /
:meth:`~GenPairPipeline.map_stream` the eager / lazy forms.  The
per-seed scalar chain (one xxHash, one :meth:`SeedMap.query` and one
``np.unique`` merge at a time) lives in ``tests/oracles/core.py`` as
the reference both are tested against.  One parallel mode:
:class:`~repro.core.executor.StreamExecutor` — a persistent pool of forked workers, double-buffered dispatch,
ordered merge — folds per-chunk counters back with
:func:`~repro.core.pipeline.merge_stats`; pooled and in-process output
are bit-identical.
"""

from .executor import DEFAULT_INFLIGHT_PER_WORKER, StreamExecutor
from .fingerprint import IndexFingerprint
from .insert_estimator import (InsertSizeEstimate, InsertSizeEstimator,
                               calibrate_delta)
from .light_align import (EditProfile, LightAligner, LightAlignment,
                          enumerate_simple_profiles)
from .longread import LongReadConfig, LongReadMapper, LongReadStats
from .pairfilter import DEFAULT_DELTA, FilterResult, filter_adjacent
from .pipeline import (DEFAULT_BATCH_SIZE, STAGE_DP_CANDIDATE,
                       STAGE_FULL_DP, STAGE_LIGHT, STAGE_UNMAPPED,
                       GenPairConfig, GenPairPipeline, PipelineStats)
from .query import QueryResult, query_hash_groups, resolve_reads
from .seedmap import (DEFAULT_FILTER_THRESHOLD, LOCATION_ENTRY_BYTES,
                      SEED_TABLE_ENTRY_BYTES, SeedMap, SeedMapStats)
from .seeding import pair_role_codes, seed_offsets

__all__ = [
    "DEFAULT_BATCH_SIZE", "DEFAULT_DELTA", "DEFAULT_FILTER_THRESHOLD",
    "DEFAULT_INFLIGHT_PER_WORKER", "StreamExecutor",
    "EditProfile", "IndexFingerprint", "InsertSizeEstimate",
    "InsertSizeEstimator",
    "calibrate_delta", "FilterResult", "GenPairConfig", "GenPairPipeline",
    "LightAligner", "LightAlignment", "LOCATION_ENTRY_BYTES",
    "LongReadConfig", "LongReadMapper", "LongReadStats",
    "PipelineStats", "QueryResult", "SEED_TABLE_ENTRY_BYTES",
    "STAGE_DP_CANDIDATE", "STAGE_FULL_DP", "STAGE_LIGHT", "STAGE_UNMAPPED",
    "SeedMap", "SeedMapStats", "enumerate_simple_profiles",
    "filter_adjacent", "pair_role_codes", "query_hash_groups",
    "resolve_reads", "seed_offsets",
]
