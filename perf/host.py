"""How fast the host is right now: a fixed microloop, run between the
timed samples.

The machines this suite runs on are shared: the same work takes 20-40%
longer for minutes at a time, and then does not (measured: README,
*Noise*).  Every timed sample — a pass, a window of daemon traffic, a
set-up — is therefore bracketed by two runs of :func:`probe`, and its
time is divided by :func:`factor` of them.  The end-to-end figures then
read "on a host where the probe takes :data:`REFERENCE_S`", which halves
their run-to-run spread on a busy host and leaves them as they were on a
calm one; the raw figure stays beside each in the record.

The probe never runs code of the program under test, so it cannot move
with a change to it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: The probe on the 2-core host the suite was sized on, when it is calm.
REFERENCE_S = 0.020
_KEYS = 200_000


def probe() -> float:
    """Seconds for a fixed numpy + pure-Python microloop (~20 ms).  The
    timed part allocates no array (what an allocation costs depends on
    what the process freed before), and calls no BLAS: its worker
    threads would spin against the loop on a small host."""
    keys = np.random.default_rng(0).random(_KEYS)
    scaled, summed = np.zeros_like(keys), np.zeros_like(keys)
    started = perf_counter()
    for _ in range(10):
        np.multiply(keys, 1.0001, out=scaled)
        np.cumsum(scaled, out=summed)
    scaled.sort()
    total = 0
    for value in range(_KEYS):
        total += value * value % 7
    return perf_counter() - started


def factor(before: float, after: float) -> float:
    """How much slower than the reference the host ran between two
    probes (1.0: as fast; 1.25: a quarter slower)."""
    return (before + after) / 2.0 / REFERENCE_S


def calibrate() -> float:
    """The best of five probes: ``host.calib_s``, the figure records
    taken on different hosts are compared by."""
    return min(probe() for _ in range(5))
