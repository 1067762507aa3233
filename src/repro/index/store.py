"""Saving and memory-mapped opening of persistent SeedMap indexes.

:func:`save_index` writes one self-describing file from a built
:class:`~repro.core.seedmap.SeedMap` plus its reference;
:func:`open_index` maps it back as a :class:`MappingIndex` whose
``seedmap``/``reference`` are backed by ``np.memmap`` views — opening is
O(header) work, and forked workers share the page cache copy of the
tables.  :func:`inspect_index` reads and verifies a file without
constructing the mapping objects (the ``repro index inspect`` path).
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..core.fingerprint import UNSET, IndexFingerprint
from ..core.seedmap import SeedMap, SeedMapStats
from ..genome.reference import ReferenceGenome
from ..hashing import PositionTable
from .format import (ARRAY_DTYPES, FORMAT_VERSION, IndexFormatError,
                     align_up, crc32, pack_header, read_header)

PathLike = Union[str, Path]


def save_index(path: PathLike, seedmap: SeedMap,
               reference: ReferenceGenome) -> int:
    """Serialize a built SeedMap + its reference to ``path``.

    Returns the total number of bytes written.  The reference must be
    the one the SeedMap was built from: its linear coordinate space is
    what the Location Table entries point into.
    """
    source = {"ref_codes": reference.linear_codes(),
              **seedmap.table_arrays()}
    manifest: Dict[str, dict] = {}
    arrays: List[np.ndarray] = []
    cursor = 0
    for name, dtype in ARRAY_DTYPES:
        # ascontiguousarray is a view (no copy) whenever the source is
        # already contiguous with the target layout — the common case —
        # and the crc/write below both run on the raw buffer, so peak
        # memory stays at the live arrays themselves.
        data = np.ascontiguousarray(source[name], dtype=np.dtype(dtype))
        manifest[name] = {"dtype": dtype,
                          "count": int(data.size),
                          "offset": cursor,
                          "crc32": crc32(data)}
        arrays.append(data)
        cursor = align_up(cursor + data.nbytes)
    meta = {
        "format_version": FORMAT_VERSION,
        "seed_length": int(seedmap.seed_length),
        "filter_threshold": (None if seedmap.filter_threshold is None
                             else int(seedmap.filter_threshold)),
        "step": int(seedmap.step),
        "reference": {
            "names": list(reference.names),
            "lengths": [int(reference.length(name))
                        for name in reference.names],
            "total_length": int(reference.total_length),
        },
        "stats": dataclasses.asdict(seedmap.stats),
        "arrays": manifest,
    }
    header = pack_header(meta)
    with open(path, "wb") as handle:
        handle.write(header)
        written = 0
        for data in arrays:
            if data.nbytes:
                handle.write(data.data)
            padded = align_up(written + data.nbytes)
            handle.write(b"\x00" * (padded - written - data.nbytes))
            written = padded
    return len(header) + cursor


class MappingIndex:
    """An opened persistent index: memory-mapped SeedMap + reference.

    Hand :attr:`reference` and :attr:`seedmap` straight to
    :class:`~repro.core.pipeline.GenPairPipeline`; both are views into
    the index file (read-only), so any number of pipelines — including
    forked pool workers — share one physical copy.
    """

    def __init__(self, path: str, meta: dict, seedmap: SeedMap,
                 reference: ReferenceGenome) -> None:
        self.path = path
        self.meta = meta
        self.seedmap = seedmap
        self.reference = reference

    @property
    def format_version(self) -> int:
        return self.meta["format_version"]

    @property
    def seed_length(self) -> int:
        return self.meta["seed_length"]

    @property
    def filter_threshold(self) -> Optional[int]:
        return self.meta["filter_threshold"]

    @property
    def step(self) -> int:
        return self.meta["step"]

    @property
    def fingerprint(self) -> IndexFingerprint:
        """The canonical config fingerprint this index was built with."""
        return IndexFingerprint.from_meta(self.meta)

    @property
    def stats(self) -> SeedMapStats:
        return self.seedmap.stats

    @classmethod
    def open(cls, path: PathLike, **kwargs) -> "MappingIndex":
        """Open an index file; see :func:`open_index` for parameters."""
        return open_index(path, **kwargs)


def open_index(path: PathLike, mmap: bool = True, verify: bool = True,
               expect_seed_length: Optional[int] = None,
               expect_filter_threshold=UNSET,
               expect_step: Optional[int] = None) -> MappingIndex:
    """Open a persistent index written by :func:`save_index`.

    Parameters
    ----------
    mmap:
        Map array regions with ``np.memmap`` (the zero-copy default);
        ``False`` reads them into process-private memory instead.
    verify:
        Check every array's crc32 against the manifest (the header crc
        is always checked).  Verification reads the file once; pass
        ``False`` for latency-critical reopen paths that trust the file.
    expect_seed_length / expect_filter_threshold / expect_step:
        Config-fingerprint expectations, checked through the canonical
        :class:`~repro.core.fingerprint.IndexFingerprint`; a mismatch
        raises
        :class:`IndexFormatError` so a stale index is rejected instead
        of silently serving a differently-configured pipeline.
        ``expect_filter_threshold=None`` means "expect unfiltered";
        leave the argument out to accept whatever the index holds.
    """
    path = str(path)
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise IndexFormatError(f"cannot open index {path!r}: {exc}") \
            from None
    with handle:
        meta, data_start = read_header(handle)
    fingerprint = IndexFingerprint.from_meta(meta)
    problems = fingerprint.conflicts(
        seed_length=expect_seed_length,
        filter_threshold=expect_filter_threshold, step=expect_step)
    if problems:
        raise IndexFormatError(
            f"index fingerprint mismatch: {path!r} was built with "
            f"{'; '.join(problems)}; rebuild with `repro index build`")
    arrays = _map_arrays(path, meta, data_start, mmap=mmap, verify=verify)
    ref_meta = meta["reference"]
    reference = ReferenceGenome.from_linear_codes(
        ref_meta["names"], ref_meta["lengths"], arrays["ref_codes"])
    seedmap = SeedMap(meta["seed_length"],
                      PositionTable(arrays["hash_keys"],
                                    arrays["range_starts"],
                                    arrays["range_ends"],
                                    arrays["locations"]),
                      SeedMapStats(**meta["stats"]),
                      filter_threshold=meta["filter_threshold"],
                      step=meta["step"])
    return MappingIndex(path, meta, seedmap, reference)


def _map_arrays(path: str, meta: dict, data_start: int, mmap: bool,
                verify: bool) -> Dict[str, np.ndarray]:
    """Map (or read) every manifest array, optionally crc-checking it."""
    file_size = os.path.getsize(path)
    manifest = meta.get("arrays", {})
    arrays: Dict[str, np.ndarray] = {}
    for name, _ in ARRAY_DTYPES:
        spec = manifest.get(name)
        if spec is None:
            raise IndexFormatError(f"index is missing array {name!r}")
        dtype = np.dtype(spec["dtype"])
        count = int(spec["count"])
        start = data_start + int(spec["offset"])
        end = start + count * dtype.itemsize
        if count < 0 or end > file_size:
            raise IndexFormatError(
                f"index file truncated: array {name!r} needs bytes "
                f"[{start}, {end}) but the file has {file_size}")
        if count == 0:
            array = np.zeros(0, dtype=dtype)
        elif mmap:
            array = np.memmap(path, dtype=dtype, mode="r",
                              offset=start, shape=(count,))
        else:
            with open(path, "rb") as handle:
                handle.seek(start)
                array = np.frombuffer(
                    handle.read(count * dtype.itemsize), dtype=dtype)
        if verify and crc32(array if count else b"") != spec["crc32"]:
            raise IndexFormatError(
                f"array {name!r} checksum mismatch (corrupted index); "
                "rebuild with `repro index build`")
        arrays[name] = array
    return arrays


def inspect_index(path: PathLike, verify: bool = True) -> dict:
    """Read an index's metadata (and optionally verify its checksums).

    Returns a report dictionary — the parsed header ``meta`` plus
    ``path``, ``file_bytes``, ``data_start``, per-array byte sizes, and
    ``checksums_ok`` — without constructing SeedMap/reference objects.
    """
    path = str(path)
    with open(path, "rb") as handle:
        meta, data_start = read_header(handle)
    checksums_ok = None
    if verify:
        _map_arrays(path, meta, data_start, mmap=True, verify=True)
        checksums_ok = True
    array_rows = []
    for name, _ in ARRAY_DTYPES:
        spec = meta.get("arrays", {}).get(name)
        if spec is None:
            raise IndexFormatError(f"index is missing array {name!r}")
        array_rows.append({
            "name": name, "dtype": spec["dtype"],
            "count": int(spec["count"]),
            "bytes": int(spec["count"]) * np.dtype(spec["dtype"]).itemsize,
            "crc32": spec["crc32"],
        })
    return {"path": path, "file_bytes": os.path.getsize(path),
            "data_start": data_start, "meta": meta,
            "arrays": array_rows, "checksums_ok": checksums_ok}
