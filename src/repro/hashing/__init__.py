"""Hashing substrate: vectorized spec-exact xxHash32 and seed hashing
(the scalar pure-Python reference is in ``tests/oracles/core.py``), and
the one hash -> sorted positions table (:mod:`repro.hashing.table`)
that both reference indexes — GenPair's SeedMap and the baseline's
minimizer index — are built on."""

from .seeds import (DEFAULT_SEED_LENGTH, hash_reads_batch,
                    hash_reference_windows)
from .table import PositionTable, ragged_ranges
from .vectorized import pack_rows_2bit, xxhash32_rows

__all__ = ["DEFAULT_SEED_LENGTH", "PositionTable", "hash_reads_batch",
           "hash_reference_windows", "pack_rows_2bit", "ragged_ranges",
           "xxhash32_rows"]
