"""Hashing substrate: vectorized spec-exact xxHash32 and seed hashing
(the scalar pure-Python reference is in ``tests/oracles/core.py``)."""

from .seeds import (DEFAULT_SEED_LENGTH, hash_reads_batch,
                    hash_reference_windows)
from .vectorized import pack_rows_2bit, xxhash32_rows

__all__ = ["DEFAULT_SEED_LENGTH", "hash_reads_batch",
           "hash_reference_windows", "pack_rows_2bit", "xxhash32_rows"]
