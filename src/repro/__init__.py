"""GenPairX reproduction: paired-end read mapping, co-designed HW model.

Public API layout:

* :mod:`repro.api` — **the public entry point**: the unified
  :class:`~repro.api.MappingConfig`, the :class:`~repro.api.Mapper`
  facade (owns the memory-mapped index and a reused persistent worker
  pool), the stage registries, and the ``repro serve`` daemon plus its
  :class:`~repro.api.Client`;
* :mod:`repro.genome` — sequences, references, simulation, CIGAR, SAM;
* :mod:`repro.hashing` — xxHash32 (scalar and vectorized);
* :mod:`repro.align` — affine-gap DP aligners and chaining;
* :mod:`repro.mapper` — the baseline seed-chain-align mapper ("MM2");
* :mod:`repro.core` — the GenPair algorithm (SeedMap, partitioned
  seeding, paired-adjacency filtering, light alignment, pipeline); the
  pipeline has one chunked dataflow — a whole chunk's seeds hashed in
  one vectorized call and resolved against the array-backed SeedMap
  in one probe (``map_pair`` is a chunk of one) — and one parallel
  mode, the persistent forked pool of :mod:`repro.core.executor`;
* :mod:`repro.index` — persistent memory-mapped SeedMap indexes: one
  ``repro index build`` serializes the SeedMap + encoded reference to a
  versioned binary file that ``repro map --index`` memory-maps back in
  milliseconds, with forked workers sharing one physical copy;
* :mod:`repro.hw` — the GenPairX hardware model (NMSL, sizing, costs);
* :mod:`repro.filters` — pre-alignment filter baselines (SHD,
  GateKeeper, FastHASH adjacency, exact match);
* :mod:`repro.variants` — pileup caller, truth comparison, mapeval;
* :mod:`repro.analysis` — the paper's §3 profiling observations.
"""

from . import align, analysis, api, core, filters, genome, hashing, \
    hw, index, mapper, util, variants

__version__ = "1.2.0"

__all__ = ["align", "analysis", "api", "core", "filters", "genome",
           "hashing", "hw", "index", "mapper", "util", "variants",
           "__version__"]
