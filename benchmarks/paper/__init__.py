"""The paper's evaluation code: what the mapper is measured against.

No module of the installed ``repro`` package imports this one.  The
benches import it as ``paper`` (run from ``benchmarks/`` with
``PYTHONPATH=../src:.``), the tests under ``tests/paper/`` as
``benchmarks.paper``.

* :mod:`.filters` — the §8 pre-alignment filter baselines (SHD,
  GateKeeper, whole-read exact matching) and the SHD + Light Alignment
  combination;
* :mod:`.profiles` — the §3 profiling: Fig 1's stage breakdown, Fig 2
  and Observation 3's edit patterns, the §3.2 exact-match rates,
  Observations 1-2 and the seed-length exploration.
"""
