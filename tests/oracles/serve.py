"""Scalar references for ``repro.serve``: one inline entry at a time.

* :func:`decode_pairs_walk` / :func:`decode_reads_walk` — the
  entry-by-entry decode of a ``map`` request's ``pairs`` / ``reads``
  (shape, then each read's type and bases through its own ``encode``,
  then the name), raising at the first faulty entry.  What
  :func:`repro.serve.protocol.decode_pairs` and
  :func:`~repro.serve.protocol.decode_reads` must return, or raise with
  the same text, however they batch the encoding.

Nothing under ``src/`` imports this module; tests import it as
``oracles.serve``.
"""

from __future__ import annotations

from repro.genome.sequence import SequenceError, encode
from repro.serve.protocol import RequestError


def _codes(read, where):
    if not isinstance(read, str):
        raise RequestError(f"{where}: a read must be a string, got "
                           f"{type(read).__name__}")
    try:
        return encode(read, allow_n=True)
    except SequenceError as exc:
        raise RequestError(f"{where}: {exc}") from None


def _name(name, where):
    if not isinstance(name, str) or any(c in name for c in "\t\r\n"):
        raise RequestError(f"{where}: a name must be a string with no tab, "
                           f"CR or LF, got {name!r:.60}")
    return name


def decode_pairs_walk(pairs):
    """``(codes1, codes2, name)`` per entry, one entry at a time."""
    decoded = []
    for number, entry in enumerate(pairs):
        where = f"pair {number}"
        if isinstance(entry, dict) and "read1" in entry \
                and "read2" in entry:
            read1, read2 = entry["read1"], entry["read2"]
            name = entry.get("name", f"pair{number}")
        elif isinstance(entry, (list, tuple)) and len(entry) in (2, 3):
            read1, read2 = entry[0], entry[1]
            name = entry[2] if len(entry) > 2 else f"pair{number}"
        else:
            raise RequestError(f"{where}: expected [read1, read2, name?] "
                               "or {read1, read2, name?}")
        decoded.append((_codes(read1, where), _codes(read2, where),
                        _name(name, where)))
    return decoded


def decode_reads_walk(reads):
    """``(codes, name)`` per entry, one entry at a time."""
    decoded = []
    for number, entry in enumerate(reads):
        where = f"read {number}"
        if isinstance(entry, dict) and "read" in entry:
            read = entry["read"]
            name = entry.get("name", f"read{number}")
        elif isinstance(entry, str):
            read, name = entry, f"read{number}"
        elif isinstance(entry, (list, tuple)) and len(entry) in (1, 2):
            read = entry[0]
            name = entry[1] if len(entry) > 1 else f"read{number}"
        else:
            raise RequestError(f"{where}: expected [read, name?], a "
                               "read string or {read, name?}")
        decoded.append((_codes(read, where), _name(name, where)))
    return decoded
