"""The concurrent serving tier behind ``repro serve``.

One warm :class:`~repro.api.Mapper`, many simultaneous clients: accept
threads on a UNIX socket and/or a TCP endpoint feed a bounded queue; a
scheduler thread drains it onto the one warm mapper, coalescing
compatible small ``map`` requests into shared engine runs and applying
backpressure (``busy``) and per-request deadlines (``timeout``).  The
package layers, bottom-up:

* :mod:`repro.serve.address` — UNIX-path / ``HOST:PORT`` endpoint
  parsing shared by server and client;
* :mod:`repro.serve.protocol` — NDJSON request decoding, the
  structured error shapes, and the server totals;
* :mod:`repro.serve.listeners` — bound accepting sockets;
* :mod:`repro.serve.scheduler` — the bounded queue, coalescing, and
  deadline enforcement in front of the mapper;
* :mod:`repro.serve.server` — per-connection framing, the ops layer,
  and the :func:`serve` entry point.

``repro.api`` re-exports the public names (:class:`MapServer`,
:func:`serve`, …), so existing imports keep working; this package is
the implementation.
"""

from .address import (TCP, UNIX, Address, AddressError, parse_address,
                      require_tcp)
from .listeners import ServerError
from .protocol import (E_BAD_REQUEST, E_BUSY, E_INTERNAL, E_OVERSIZED,
                       E_SHUTTING_DOWN, E_TIMEOUT, E_UNKNOWN_OP,
                       MAX_REQUEST_BYTES, RETRYABLE_CODES,
                       RequestError, ServerStats, error_reply)
from .scheduler import MapTask, Scheduler, ServeSettings
from .server import MapServer, serve

__all__ = [
    "Address", "AddressError", "parse_address", "require_tcp",
    "TCP", "UNIX",
    "MAX_REQUEST_BYTES", "RETRYABLE_CODES", "RequestError",
    "ServerStats", "error_reply",
    "E_BAD_REQUEST", "E_BUSY", "E_INTERNAL", "E_OVERSIZED",
    "E_SHUTTING_DOWN", "E_TIMEOUT", "E_UNKNOWN_OP",
    "MapTask", "Scheduler", "ServeSettings",
    "MapServer", "ServerError", "serve",
]
