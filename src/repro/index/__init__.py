"""Persistent memory-mapped index (the ``*-build`` separation).

The paper's SeedMap is an *offline* structure (§4.2), and so is the
minimizer index the traditional seed-chain-align path (the ``mm2``
engine, GenPair's full fallback) seeds from.  :func:`build_index` is
the one place both are built from a reference, into a
:class:`MappingIndex` — the reference, its
:class:`~repro.core.seedmap.SeedMap` and its
:class:`~repro.mapper.index.MinimizerIndex`, what
:class:`repro.api.Mapper` stands on.  ``repro index build`` serializes
one into a versioned binary file, and ``repro map --index`` memory-maps
it back in milliseconds (the ``bowtie2-build`` / ``minimap2 -d``
split) as the same type.  The load path is ``np.memmap`` views into
one read-only file, so every mapper over it shares a single physical
copy of every table.

File format (version 2)
=======================

All integers are **little-endian**; every array region is aligned to
:data:`~repro.index.format.ARRAY_ALIGNMENT` (64) bytes so memory-mapped
views are cache-line (and SIMD) aligned.

================  =======  ====================================================
offset            size     contents
================  =======  ====================================================
0                 8        magic ``b"RPROIDX\\x01"``
8                 8        header length ``H`` (uint64): byte length of the JSON
16                4        crc32 (uint32) of the JSON header bytes
20                4        reserved (zeros)
24                H        JSON header (UTF-8)
align64(24 + H)   —        data section: raw array bytes, offsets per manifest
================  =======  ====================================================

The JSON header carries:

* ``format_version`` — bumped on any incompatible layout change; only
  the current version is read, and any other is refused with a message
  naming ``repro index build``;
* the **config fingerprint** — ``seed_length`` and
  ``filter_threshold`` (``null`` = unfiltered) the SeedMap was built
  with; :class:`repro.api.Mapper` rejects a config that disagrees, so
  a stale index can never silently serve a differently-configured
  pipeline;
* ``step`` — always ``1``: the SeedMap indexes every reference
  position, and a file carrying any other value is refused;
* ``reference`` — chromosome ``names`` + ``lengths`` (declaration
  order), from which the zero-copy
  :meth:`~repro.genome.ReferenceGenome.from_linear_codes` views are cut;
* ``stats`` — the :class:`~repro.core.seedmap.SeedMapStats` fields;
* ``minimizers`` — the minimizer index's ``k``, ``w``,
  ``max_occurrences`` (``null`` = unmasked) and ``stats`` (the
  :class:`~repro.mapper.index.IndexStats` fields);
* ``arrays`` — the manifest: for each array its ``dtype`` (explicit
  endian, e.g. ``"<u8"``), element ``count``, byte ``offset`` relative
  to the data section, and ``crc32`` of its raw bytes.

Data-section arrays (in file order): ``ref_codes`` (``<u1``), all
chromosomes' base codes concatenated in the global linear coordinate
space (one byte per base so N is representable and fetches stay
zero-copy); then, for ``seedmap`` and then ``minimizers``, the three
columns of the :class:`repro.hashing.PositionTable` its owner holds,
written and mapped by one helper:

=====================  =======  ============================================
name                   dtype    contents
=====================  =======  ============================================
``<table>.keys``       ``<u8``  hashes, ascending and distinct
``<table>.offsets``    ``<i8``  keys + 1 entries: key ``i`` occurs at
                                ``positions[offsets[i]:offsets[i + 1]]``
``<table>.positions``  ``<i8``  global linear coordinates, sorted per key
                                (the SeedMap's are the Location Table)
=====================  =======  ============================================

Integrity: the header is covered by its own crc32, each array by the
manifest crc32 (verified on open; pass ``verify=False`` to skip), the
file size is checked against the manifest before mapping, and each
table's offsets must number its keys + 1 and end at its positions count
(checked even unverified), so truncation, bit-flips, and version skew
all fail loudly with :class:`IndexFormatError` instead of corrupting
mapping output.
"""

from .format import (ARRAY_ALIGNMENT, FORMAT_VERSION, INDEX_SUFFIX, MAGIC,
                     IndexFormatError)
from .store import (MappingIndex, build_index, inspect_index, open_index,
                    save_index)

__all__ = ["ARRAY_ALIGNMENT", "FORMAT_VERSION", "INDEX_SUFFIX",
           "IndexFormatError", "MAGIC", "MappingIndex", "build_index",
           "inspect_index", "open_index", "save_index"]
