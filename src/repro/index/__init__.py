"""Persistent memory-mapped SeedMap index (the ``*-build`` separation).

The paper's SeedMap is an *offline* structure (§4.2): it depends only on
the reference, the seed length, and the index filtering threshold — yet
the reproduction originally rebuilt it from FASTA on every ``map`` run.
This package gives the toolchain the one-time-build / many-cheap-opens
split every real mapper has (``bowtie2-build``, ``bwa index``,
``minimap2 -d``): ``repro index build`` serializes a built
:class:`~repro.core.seedmap.SeedMap` *and* the encoded reference into a
single versioned binary file, and ``repro map --index`` memory-maps it
back in milliseconds.  Because the load path is ``np.memmap`` views into
one read-only file, forked pool workers share a single physical copy
of the Seed/Location tables.

File format (version 1)
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

* ``format_version`` — bumped on any incompatible layout change;
* the **config fingerprint** — ``seed_length``, ``filter_threshold``
  (``null`` = unfiltered) and ``step`` the SeedMap was built with;
  opening with mismatching expectations is rejected, so a stale index
  can never silently serve a differently-configured pipeline;
* ``reference`` — chromosome ``names`` + ``lengths`` (declaration
  order), from which the zero-copy
  :meth:`~repro.genome.ReferenceGenome.from_linear_codes` views are cut;
* ``stats`` — the :class:`~repro.core.seedmap.SeedMapStats` fields;
* ``arrays`` — the manifest: for each array its ``dtype`` (explicit
  endian, e.g. ``"<u8"``), element ``count``, byte ``offset`` relative
  to the data section, and ``crc32`` of its raw bytes.

Data-section arrays (in file order):

================  ========  ==================================================
name              dtype     contents
================  ========  ==================================================
``ref_codes``     ``<u1``   all chromosomes' base codes, concatenated in the
                            global linear coordinate space (one byte per base
                            so N is representable and fetches stay zero-copy)
``hash_keys``     ``<u8``   Seed Table keys, ascending and distinct
``range_starts``  ``<i8``   Location Table span start per key
``range_ends``    ``<i8``   Location Table span end per key
``locations``     ``<i8``   the Location Table (global linear coordinates)
================  ========  ==================================================

The four table arrays are the attributes of the
:class:`repro.hashing.PositionTable` a SeedMap owns (``keys``,
``starts``, ``ends``, ``positions``); the table keeps ``starts`` and
``ends`` apart so this layout — and the version — did not change when
it was introduced.

Integrity: the header is covered by its own crc32, each array by the
manifest crc32 (verified on open; pass ``verify=False`` to skip), and
the file size is checked against the manifest before mapping, so
truncation, bit-flips, and version skew all fail loudly with
:class:`IndexFormatError` instead of corrupting mapping output.
"""

from .format import (ARRAY_ALIGNMENT, FORMAT_VERSION, INDEX_SUFFIX, MAGIC,
                     IndexFormatError)
from .store import MappingIndex, inspect_index, open_index, save_index

__all__ = ["ARRAY_ALIGNMENT", "FORMAT_VERSION", "INDEX_SUFFIX",
           "IndexFormatError", "MAGIC", "MappingIndex", "inspect_index",
           "open_index", "save_index"]
