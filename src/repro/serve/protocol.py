"""The NDJSON wire protocol: request decoding, error shapes, totals.

One JSON object per line, one response line per request line.  Every
response carries ``"ok"``; a failure answers ``{"ok": false, "error":
<message>, "error_code": <code>}`` where the code is machine-matchable
(clients branch on it — the retry-on-``busy`` policy in
:class:`repro.api.Client` does).  The codes:

``busy``
    The daemon's request queue (or client slot table) is full; the
    response carries ``retry_after_s``, a backoff hint.  Retryable.
``timeout``
    The request's deadline expired (``stage`` says whether it was
    still queued or already executing); the work was dropped or its
    result discarded.  Retryable with a larger ``timeout_s``.
``bad_request`` / ``unknown_op`` / ``oversized``
    The request itself is at fault — malformed, naming an unknown
    engine or format, or (``map_file``) naming an input that is
    missing or not FASTQ or an output that cannot be written; retrying
    identical bytes fails identically (:func:`error_code`).
``shutting_down``
    The daemon is draining its queue on the way down.
``internal``
    The handler raised for a reason other than the request; the
    message carries the exception.

Requests are decoded *before* they are queued, so a malformed request
is answered in microseconds and never occupies a scheduler slot.  An
inline request's reads are encoded together: one ``encode`` of all of
them joined, split into per-read views.  Only a request that fails
walks its entries one by one, so the error names the first faulty
entry (``pair 3: invalid DNA character: 'X'``), as it would alone.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..genome.sequence import SequenceError, encode, encode_many
from ..util.sync import maybe_sanitize_lock

#: Largest accepted request line (a guard against a runaway client;
#: ~64 MiB comfortably holds a few hundred thousand inline pairs).
MAX_REQUEST_BYTES = 64 * 1024 * 1024

#: Longest wait a deadline may ask for: ``threading``'s lock-wait limit
#: (about 292 years), past which waiting raises ``OverflowError``.
MAX_WAIT_S = threading.TIMEOUT_MAX

#: Machine-matchable ``error_code`` values.
E_BUSY = "busy"
E_TIMEOUT = "timeout"
E_BAD_REQUEST = "bad_request"
E_UNKNOWN_OP = "unknown_op"
E_OVERSIZED = "oversized"
E_SHUTTING_DOWN = "shutting_down"
E_INTERNAL = "internal"

#: Retryable codes (the client's default retry policy consults this).
RETRYABLE_CODES = (E_BUSY,)


def error_reply(code: str, message: str,
                op: Optional[str] = None,
                **extra: Any) -> Dict[str, Any]:
    """The one way every failure response is shaped."""
    reply: Dict[str, Any] = {"ok": False, "error": message,
                             "error_code": code}
    if op is not None:
        reply["op"] = op
    reply.update(extra)
    return reply


class RequestError(ValueError):
    """A request failed validation before any mapping work."""


def error_code(exc: BaseException) -> str:
    """``bad_request`` when the request caused ``exc`` (a malformed
    value, an unknown name, a path that does not work), else
    ``internal``."""
    return E_BAD_REQUEST if isinstance(exc, (
        ValueError, LookupError, FileNotFoundError, IsADirectoryError,
        NotADirectoryError, PermissionError)) else E_INTERNAL


def request_flag(request: Dict[str, Any], key: str) -> bool:
    """An optional boolean field: ``False`` when absent, else it must
    be a JSON boolean (``"false"`` is not one)."""
    value = request.get(key, False)
    if not isinstance(value, bool):
        raise RequestError(f'"{key}" must be true or false, got '
                           f"{value!r:.40}")
    return value


def _read_codes(read, where: str):
    """One inline read as codes: an ACGT(N) string or the client's
    error, named by its entry."""
    if not isinstance(read, str):
        raise RequestError(f"{where}: a read must be a string, got "
                           f"{type(read).__name__}")
    try:
        return encode(read, allow_n=True)
    except SequenceError as exc:
        raise RequestError(f"{where}: {exc}") from None


def _entry_name(name, where: str) -> str:
    """An inline entry's name, which must not split a record line."""
    if not isinstance(name, str) or any(c in name for c in "\t\r\n"):
        raise RequestError(f"{where}: a name must be a string with no tab, "
                           f"CR or LF, got {name!r:.60}")
    return name


def _pair_parts(number: int, entry) -> Tuple[str, tuple, Any]:
    """A ``pairs`` entry's ``(where, reads, name)``, its reads and name
    not yet checked, or the error of its shape."""
    where = f"pair {number}"
    if isinstance(entry, dict) and "read1" in entry and "read2" in entry:
        return (where, (entry["read1"], entry["read2"]),
                entry.get("name", f"pair{number}"))
    if isinstance(entry, (list, tuple)) and len(entry) in (2, 3):
        return (where, (entry[0], entry[1]),
                entry[2] if len(entry) > 2 else f"pair{number}")
    raise RequestError(f"{where}: expected [read1, read2, name?] "
                       "or {read1, read2, name?}")


def _read_parts(number: int, entry) -> Tuple[str, tuple, Any]:
    """A ``reads`` entry's ``(where, reads, name)``, as
    :func:`_pair_parts`."""
    where = f"read {number}"
    if isinstance(entry, dict) and "read" in entry:
        return where, (entry["read"],), entry.get("name", f"read{number}")
    if isinstance(entry, str):
        return where, (entry,), f"read{number}"
    if isinstance(entry, (list, tuple)) and len(entry) in (1, 2):
        return (where, (entry[0],),
                entry[1] if len(entry) > 1 else f"read{number}")
    raise RequestError(f"{where}: expected [read, name?], a "
                       "read string or {read, name?}")


def _decode_entries(entries: list, parts, width: int) -> List[Tuple]:
    """``entries`` as ``(codes, ..., name)`` tuples of ``width`` reads.

    Every entry's shape, read types and name are checked first; then all
    the request's reads are encoded as one string
    (:func:`~repro.genome.sequence.encode_many`).  Only a request that
    fails somewhere takes the per-entry walk, which raises at the first
    faulty entry with the error that entry gives alone.
    """
    try:
        split = [parts(number, entry)
                 for number, entry in enumerate(entries)]
        texts = [read for _, reads, _ in split for read in reads]
        names = [_entry_name(name, where) for where, _, name in split]
        if all(isinstance(read, str) for read in texts):
            codes = encode_many(texts, allow_n=True)
            return list(zip(*(codes[lane::width] for lane in range(width)),
                            names))
    except (RequestError, SequenceError):
        pass
    decoded = []
    for number, entry in enumerate(entries):
        where, reads, name = parts(number, entry)
        decoded.append((*(_read_codes(read, where) for read in reads),
                        _entry_name(name, where)))
    return decoded


def decode_pairs(pairs) -> List[Tuple]:
    """Inline ``pairs`` payload entries as ``(codes1, codes2, name)``."""
    if not isinstance(pairs, list):
        raise RequestError('"pairs" must be a list of '
                           '[read1, read2, name?] entries')
    return _decode_entries(pairs, _pair_parts, 2)


def decode_reads(reads) -> List[Tuple]:
    """Inline ``reads`` payload entries as ``(codes, name)``."""
    if not isinstance(reads, list):
        raise RequestError('"reads" must be a list of [read, name?] '
                           "entries")
    return _decode_entries(reads, _read_parts, 1)


def finite_seconds(value: float) -> bool:
    """Whether a number is a wait the daemon can keep: from 0 to
    :data:`MAX_WAIT_S`, which NaN and infinity both fail.  The one rule
    for ``timeout_s`` and the :class:`~repro.serve.ServeSettings` waits."""
    return 0 <= value <= MAX_WAIT_S


def request_timeout_s(request: Dict[str, Any],
                      default: Optional[float]) -> Optional[float]:
    """The effective per-request deadline in seconds.

    ``"timeout_s"`` overrides the server default; ``0`` (or ``null``)
    explicitly disables the deadline for this request.  Negative,
    non-finite (``NaN``, ``Infinity``, ``1e309``), too long or
    non-numeric values are rejected before any work is queued.
    """
    if "timeout_s" not in request:
        return default
    value = request["timeout_s"]
    if value is None:
        return None
    if isinstance(value, bool) \
            or not isinstance(value, (int, float)):
        raise RequestError('"timeout_s" must be a number of seconds')
    if value < 0:
        raise RequestError('"timeout_s" must be >= 0 '
                           "(0 disables the deadline)")
    if not finite_seconds(value):
        raise RequestError('"timeout_s" must be a finite number of '
                           f"seconds, at most {MAX_WAIT_S:.0f}")
    return float(value) if value else None


@dataclass
class ServerStats:
    """Aggregate request counters, reported by the ``stats`` op.

    Every mutation runs under ``_lock``: connection threads record
    concurrently, and ``requests += 1`` / ``by_op`` get-and-add are
    exactly the lost-update shapes the RPL1002 lint flags.
    """

    started_monotonic: float = field(default_factory=time.monotonic)
    requests: int = 0
    errors: int = 0
    pairs_mapped: int = 0
    connections: int = 0
    active_connections: int = 0
    by_op: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=lambda: maybe_sanitize_lock("serve.stats"),
        repr=False, compare=False)

    def record(self, op: str, pairs: int = 0) -> None:
        with self._lock:
            self.requests += 1
            self.pairs_mapped += pairs
            self.by_op[op] = self.by_op.get(op, 0) + 1

    def count_error(self) -> None:
        with self._lock:
            self.errors += 1

    def connection_opened(self, limit: Optional[int] = None) -> bool:
        """Claim a connection slot; ``False`` when ``limit`` active
        connections are already held (the caller answers ``busy`` and
        closes — the check and the claim are one atomic step)."""
        with self._lock:
            if limit is not None and self.active_connections >= limit:
                return False
            self.connections += 1
            self.active_connections += 1
            return True

    def connection_closed(self) -> None:
        with self._lock:
            self.active_connections -= 1

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started_monotonic

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {"requests": self.requests, "errors": self.errors,
                    "pairs_mapped": self.pairs_mapped,
                    "connections": self.connections,
                    "active_connections": self.active_connections,
                    "uptime_s": round(self.uptime_s, 3),
                    "by_op": dict(self.by_op)}
