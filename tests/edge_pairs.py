"""Read pairs that take the branches a small chunk can skip.

Built from a few ordinary pairs of a simulated set (``(read1, read2,
name)`` code tuples, as :func:`repro.genome.iter_pairs` yields them),
so they map against that set's index.  Shared by the chunk-boundary
tests and CI's ``serve-smoke`` job (which puts ``tests`` on
``PYTHONPATH``); it imports nothing but numpy and ``repro``.
"""

from typing import List, Sequence, Tuple

import numpy as np

from repro.genome.sequence import N_CODE

Pair = Tuple[np.ndarray, np.ndarray, str]


def edge_pairs(pairs: Sequence[Pair]) -> List[Pair]:
    """Edge shapes cut from the first three of ``pairs``, each named for
    its shape, plus the three pairs as they are:

    * ``rf``: the reads swapped, so only the ``rf`` orientation fits;
    * ``n_in_seed``: read 1 holds an ``N`` inside its first seed window;
    * ``short_read``: read 1 is shorter than one 50-base seed;
    * ``no_seed_hit``: random reads that hit no seed;
    * ``mixed_lengths``: read 1 cut to 120 bases, read 2 left whole;
    * ``short_pair``: both reads cut to 100 bases.
    """
    (a1, a2, _), (b1, b2, _), (c1, c2, _) = pairs[:3]
    with_n = a1.copy()
    with_n[10] = N_CODE
    random1, random2 = np.random.default_rng(0).integers(
        0, 4, size=(2, 150), dtype=np.uint8)
    return [(b2, b1, "rf"), (with_n, a2, "n_in_seed"),
            (b1[:40], b2, "short_read"),
            (random1, random2, "no_seed_hit"),
            (c1[:120], c2, "mixed_lengths"),
            (a1[:100], a2[:100], "short_pair"), *pairs[:3]]
