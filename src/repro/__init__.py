"""GenPairX reproduction: paired-end read mapping, co-designed HW model.

Public API layout:

* :mod:`repro.api` — **the public entry point**: the unified
  :class:`~repro.api.MappingConfig`, the :class:`~repro.api.Mapper`
  facade (owns the memory-mapped index and the engines built over
  it), the stage registries, and the ``repro serve`` daemon plus its
  :class:`~repro.api.Client`;
* :mod:`repro.genome` — sequences, references, simulation, CIGAR, SAM;
* :mod:`repro.hashing` — xxHash32 (scalar and vectorized);
* :mod:`repro.align` — affine-gap DP aligners and chaining;
* :mod:`repro.mapper` — the baseline seed-chain-align mapper ("MM2");
* :mod:`repro.core` — the GenPair algorithm (SeedMap, partitioned
  seeding, paired-adjacency filtering, light alignment, pipeline); the
  pipeline has one chunked dataflow — a whole chunk's seeds hashed in
  one vectorized call and resolved against the array-backed SeedMap
  in one probe (``map_pair`` is a chunk of one) — run in one process;
* :mod:`repro.index` — persistent memory-mapped indexes: one
  ``repro index build`` serializes the SeedMap, the minimizer index and
  the encoded reference to a versioned binary file that ``repro map
  --index`` memory-maps back in milliseconds.

One leaf no engine imports, loaded only when imported by name (``import
repro.variants``), so mapping and serving never load it:

* :mod:`repro.variants` — pileup caller, truth comparison, mapeval.

The §3 profiling, the §4.5 Δ calibration, the §5/§7 hardware model and
the §8 filter baselines are evaluation, not mapping: they live outside
the package, in ``benchmarks/paper/``; the project's static checks are a
development tool, in ``tools/lint/``.
"""

from . import align, api, core, genome, hashing, index, mapper, util

__version__ = "1.2.0"

__all__ = ["align", "api", "core", "genome", "hashing", "index", "mapper",
           "util", "__version__"]
