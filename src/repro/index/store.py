"""Building, saving and memory-mapped opening of a :class:`MappingIndex`.

:func:`build_index` builds a reference's
:class:`~repro.core.seedmap.SeedMap` and
:class:`~repro.mapper.index.MinimizerIndex`; :func:`save_index` writes
the index, reference included, as one self-describing file;
:func:`open_index` maps it back as the same type, whose
``seedmap``/``minimizers``/``reference`` are backed by ``np.memmap``
views — opening is O(header) work, and every process that opens the
file shares the page cache copy of the tables.  :func:`inspect_index`
reads and verifies a file without constructing the mapping objects
(the ``repro index inspect`` path).
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.fingerprint import IndexFingerprint
from ..core.seedmap import DEFAULT_FILTER_THRESHOLD, SeedMap, SeedMapStats
from ..genome.reference import ReferenceGenome
from ..hashing import DEFAULT_SEED_LENGTH, PositionTable
from ..mapper.index import IndexStats, MinimizerIndex
from .format import (ARRAY_DTYPES, FORMAT_VERSION, TABLE_COLUMNS,
                     IndexFormatError, align_up, crc32, pack_header,
                     read_header)

PathLike = Union[str, Path]


def _table_sections(name: str, table: PositionTable
                    ) -> Dict[str, np.ndarray]:
    """The three sections ``table`` is written as, by manifest name."""
    return {f"{name}.{column}": getattr(table, column)
            for column, _ in TABLE_COLUMNS}


def _mapped_table(name: str, arrays: Dict[str, np.ndarray]
                  ) -> PositionTable:
    """The table the ``name`` sections hold, checked in O(1) even
    unverified: keys + 1 offsets, the last one the positions count."""
    keys, offsets, positions = (arrays[f"{name}.{column}"]
                                for column, _ in TABLE_COLUMNS)
    if offsets.size != keys.size + 1 or int(offsets[-1]) != positions.size:
        raise IndexFormatError(
            f"table {name!r} is inconsistent: {offsets.size} offsets for "
            f"{keys.size} keys and {positions.size} positions (corrupted "
            "index); rebuild with `repro index build`")
    return PositionTable(keys, offsets, positions)


@dataclasses.dataclass(eq=False)
class MappingIndex:
    """Everything a mapper stands on: a reference, its SeedMap and its
    minimizer index.

    :func:`build_index` builds one in memory (``path`` is ``None``);
    :func:`open_index` maps one from a file, whose tables are then
    read-only ``np.memmap`` views, so any number of mappers share one
    physical copy.  Hand :attr:`reference` and :attr:`seedmap` to
    :class:`~repro.core.pipeline.GenPairPipeline`, and
    :attr:`minimizers` to :class:`~repro.mapper.mm2.Mm2LikeMapper`.
    """

    path: Optional[str]
    reference: ReferenceGenome
    seedmap: SeedMap
    minimizers: MinimizerIndex

    @property
    def fingerprint(self) -> IndexFingerprint:
        """The canonical config fingerprint the SeedMap was built with."""
        return IndexFingerprint(self.seedmap.seed_length,
                                self.seedmap.filter_threshold)


def build_index(reference: ReferenceGenome,
                seed_length: int = DEFAULT_SEED_LENGTH,
                filter_threshold: Optional[int] = DEFAULT_FILTER_THRESHOLD
                ) -> MappingIndex:
    """Build a reference's SeedMap (every position, under the given
    fingerprint) and its minimizer index (the ``mm2`` defaults).

    The one place index tables are built from a reference: ``repro
    index build`` saves what this returns, and
    :meth:`repro.api.Mapper.from_reference` maps over it in memory.
    A reference holding an ``N`` raises
    :class:`~repro.genome.sequence.SequenceError`.
    """
    return MappingIndex(None, reference,
                        SeedMap.build(reference, seed_length,
                                      filter_threshold),
                        MinimizerIndex.build(reference))


def save_index(path: PathLike, index: MappingIndex) -> int:
    """Serialize an index — its reference, SeedMap and minimizer
    index — to ``path``.

    Returns the total number of bytes written.
    """
    reference, seedmap, minimizers = (index.reference, index.seedmap,
                                      index.minimizers)
    source = {"ref_codes": reference.linear_codes(),
              **_table_sections("seedmap", seedmap.table),
              **_table_sections("minimizers", minimizers.table)}
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
        # Every position is indexed; the key stays so the bytes do.
        "step": 1,
        "reference": {
            "names": list(reference.names),
            "lengths": [int(reference.length(name))
                        for name in reference.names],
            "total_length": int(reference.total_length),
        },
        "stats": dataclasses.asdict(seedmap.stats),
        "minimizers": {"k": minimizers.k, "w": minimizers.w,
                       "max_occurrences": minimizers.max_occurrences,
                       "stats": dataclasses.asdict(minimizers.stats)},
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


def open_index(path: PathLike, verify: bool = True) -> MappingIndex:
    """Memory-map a persistent index written by :func:`save_index`.

    ``verify`` checks every array's crc32 against the manifest (the
    header crc and each table's offsets check always run).
    Verification reads the file once; pass ``False`` for
    latency-critical reopen paths that trust the file.  Whether the
    index suits a config is :class:`repro.api.Mapper`'s check.
    """
    path = str(path)
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise IndexFormatError(f"cannot open index {path!r}: {exc}") \
            from None
    with handle:
        meta, data_start = read_header(handle)
    if meta.get("step") != 1:
        raise IndexFormatError(
            f"index {path!r} has step {meta.get('step')!r}, but only "
            "indexes of every position (step 1) are supported; rebuild "
            "with `repro index build`")
    arrays = _map_arrays(path, meta, data_start, verify=verify)
    ref_meta = meta["reference"]
    reference = ReferenceGenome.from_linear_codes(
        ref_meta["names"], ref_meta["lengths"], arrays["ref_codes"])
    seedmap = SeedMap(meta["seed_length"], _mapped_table("seedmap", arrays),
                      SeedMapStats(**meta["stats"]),
                      filter_threshold=meta["filter_threshold"])
    table = meta["minimizers"]
    minimizers = MinimizerIndex(table["k"], table["w"],
                                table["max_occurrences"],
                                _mapped_table("minimizers", arrays),
                                IndexStats(**table["stats"]))
    return MappingIndex(path, reference, seedmap, minimizers)


def _manifest(meta: dict) -> Iterator[Tuple[str, dict]]:
    """Every array's manifest entry, in file order."""
    for name, _ in ARRAY_DTYPES:
        spec = meta.get("arrays", {}).get(name)
        if spec is None:
            raise IndexFormatError(f"index is missing array {name!r}")
        yield name, spec


def _map_arrays(path: str, meta: dict, data_start: int,
                verify: bool) -> Dict[str, np.ndarray]:
    """Map every manifest array, optionally crc-checking it."""
    file_size = os.path.getsize(path)
    arrays: Dict[str, np.ndarray] = {}
    for name, spec in _manifest(meta):
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
        else:
            array = np.memmap(path, dtype=dtype, mode="r",
                              offset=start, shape=(count,))
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
        _map_arrays(path, meta, data_start, verify=True)
        checksums_ok = True
    array_rows = [{"name": name, "dtype": spec["dtype"],
                   "count": int(spec["count"]),
                   "bytes": int(spec["count"])
                   * np.dtype(spec["dtype"]).itemsize,
                   "crc32": spec["crc32"]}
                  for name, spec in _manifest(meta)]
    return {"path": path, "file_bytes": os.path.getsize(path),
            "data_start": data_start, "meta": meta,
            "arrays": array_rows, "checksums_ok": checksums_ok}
