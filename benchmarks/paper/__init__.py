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
  Observations 1-2 and the seed-length exploration;
* :mod:`.calibration` — the §4.5 insert-size estimate and the Δ it
  suggests (``bench_delta_calibration.py``);
* :mod:`.hw` — the §5/§7 hardware model: NMSL, module sizing,
  area/power, GenDP and the host interface (the ``bench_fig08``/
  ``09``/``11``/``12``, ``bench_tab03``-``06`` and
  ``bench_pipeline_balance`` reports; tested in ``tests/hw/``).
"""
