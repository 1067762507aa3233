"""Binary layout of the persistent index: magic, header, manifest.

See the package docstring (:mod:`repro.index`) for the full on-disk
format specification.  This module owns the low-level pieces — preamble
packing/parsing, header checksums, and alignment arithmetic — so
:mod:`repro.index.store` can deal purely in arrays and metadata.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import BinaryIO, Tuple

#: File magic: identifies a repro SeedMap index, any version.
MAGIC = b"RPROIDX\x01"

#: Current (and only readable) on-disk format version.
FORMAT_VERSION = 2

#: Alignment of the data section and of every array region within it.
ARRAY_ALIGNMENT = 64

#: Conventional file suffix produced by ``repro index build``.
INDEX_SUFFIX = ".rpix"

#: Fixed-size preamble: magic + header length (u64) + header crc32 (u32)
#: + 4 reserved bytes.
_PREAMBLE = struct.Struct("<8sQI4x")
PREAMBLE_BYTES = _PREAMBLE.size

#: The hash -> positions tables a file holds, in file order.
TABLES = ("seedmap", "minimizers")

#: The sections of one table: the columns of a
#: :class:`~repro.hashing.PositionTable`.
TABLE_COLUMNS = (("keys", "<u8"), ("offsets", "<i8"), ("positions", "<i8"))

#: Serialized dtype of each data-section array, in file order.  Explicit
#: little-endian codes: the file is byte-order-portable, and a
#: big-endian host simply pays one byteswap copy on load.
ARRAY_DTYPES = (("ref_codes", "<u1"),) + tuple(
    (f"{table}.{column}", dtype)
    for table in TABLES for column, dtype in TABLE_COLUMNS)


class IndexFormatError(ValueError):
    """Raised when an index file is missing, corrupt, or incompatible."""


def align_up(offset: int, alignment: int = ARRAY_ALIGNMENT) -> int:
    """Round ``offset`` up to the next multiple of ``alignment``."""
    return (offset + alignment - 1) // alignment * alignment


def crc32(data) -> int:
    """crc32 of any contiguous bytes-like object, as unsigned 32-bit."""
    return zlib.crc32(data) & 0xFFFFFFFF


def pack_header(meta: dict) -> bytes:
    """Serialize metadata into preamble + JSON, padded to alignment.

    The returned block ends exactly at the data-section start, so array
    offsets in ``meta["arrays"]`` are relative to ``len(result)``.
    """
    payload = json.dumps(meta, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    preamble = _PREAMBLE.pack(MAGIC, len(payload), crc32(payload))
    total = align_up(len(preamble) + len(payload))
    return (preamble + payload).ljust(total, b"\x00")


def read_header(handle: BinaryIO) -> Tuple[dict, int]:
    """Parse and validate the preamble + JSON header of an open file.

    Returns ``(meta, data_start)`` where ``data_start`` is the absolute
    file offset of the data section.  Raises :class:`IndexFormatError`
    on bad magic, truncation, checksum mismatch, malformed JSON, or an
    unsupported format version.
    """
    preamble = handle.read(PREAMBLE_BYTES)
    if len(preamble) < PREAMBLE_BYTES:
        raise IndexFormatError("file too short to be a SeedMap index")
    magic, header_length, header_crc = _PREAMBLE.unpack(preamble)
    if magic != MAGIC:
        raise IndexFormatError(
            "not a SeedMap index file (bad magic); expected a file "
            "written by `repro index build`")
    # Bound the length field by the file size before allocating: a
    # bit-flipped uint64 must fail loudly, not as a MemoryError.
    position = handle.tell()
    handle.seek(0, 2)
    file_size = handle.tell()
    handle.seek(position)
    if header_length > file_size - PREAMBLE_BYTES:
        raise IndexFormatError(
            "index header length field exceeds the file size "
            "(corrupted file)")
    payload = handle.read(header_length)
    if len(payload) < header_length:
        raise IndexFormatError("truncated index header")
    if crc32(payload) != header_crc:
        raise IndexFormatError(
            "index header checksum mismatch (corrupted file)")
    try:
        meta = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexFormatError(f"malformed index header: {exc}") from None
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported index format version {version!r} "
            f"(this build reads version {FORMAT_VERSION}); "
            "rebuild with `repro index build`")
    return meta, align_up(PREAMBLE_BYTES + header_length)
