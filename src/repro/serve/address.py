"""Listen/connect addresses for the serving tier: UNIX paths and TCP.

One daemon can listen on several addresses at once — the historical
UNIX-domain socket plus a TCP endpoint reachable from other hosts —
and the client connects to either through the same flag, so both sides
need one shared notion of "an address".  :func:`parse_address` turns
the user-facing text form into an :class:`Address`:

* ``tcp://HOST:PORT`` — explicit TCP;
* ``HOST:PORT`` — TCP, when the part after the last ``:`` parses as a
  port and the text is not a filesystem path (no ``/``);
* ``unix://PATH`` — explicit UNIX-domain path;
* anything else — a UNIX-domain socket path (the historical form).

``HOST`` may be empty (``:7533``): a server binds every interface, a
client connects to localhost.  Ephemeral ports (``PORT`` = 0) are
resolved at bind time; :meth:`Address.resolved` reports the port the
kernel picked, which is what tests and ``repro serve`` print.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

PathLike = Union[str, Path]

#: ``Address.kind`` values.
UNIX = "unix"
TCP = "tcp"


class AddressError(ValueError):
    """The address text could not be parsed into a usable endpoint."""


@dataclass(frozen=True)
class Address:
    """One serving endpoint: a UNIX socket path or a TCP host/port."""

    kind: str
    path: Optional[str] = None
    host: Optional[str] = None
    port: Optional[int] = None

    @property
    def display(self) -> str:
        """The canonical text form (what ``repro serve`` prints and
        what round-trips through :func:`parse_address`)."""
        if self.kind == UNIX:
            return str(self.path)
        return f"{self.host or ''}:{self.port}"

    def connect(self, timeout: Optional[float] = None) -> socket.socket:
        """A connected stream socket to this endpoint (client side)."""
        if self.kind == UNIX:
            if not hasattr(socket, "AF_UNIX"):  # pragma: no cover
                raise AddressError(
                    "UNIX-domain sockets are unavailable on this "
                    "platform; serve on --tcp instead")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            try:
                sock.connect(str(self.path))
            except OSError:
                sock.close()
                raise
            return sock
        host = self.host or "127.0.0.1"
        return socket.create_connection((host, self.port),
                                        timeout=timeout)

    def __str__(self) -> str:
        return self.display


def _tcp_address(host: str, port_text: str,
                 original: str) -> Address:
    try:
        port = int(port_text)
    except ValueError:
        raise AddressError(
            f"bad TCP address {original!r}: port {port_text!r} is not "
            "an integer") from None
    if not 0 <= port <= 65535:
        raise AddressError(
            f"bad TCP address {original!r}: port must be in 0..65535")
    return Address(kind=TCP, host=host, port=port)


def parse_address(text: PathLike) -> Address:
    """Parse the user-facing address text (see the module docstring).

    Accepts :class:`~pathlib.Path` objects as UNIX paths directly, so
    existing ``Client(tmp_path / "x.sock")`` call sites keep working.
    """
    if isinstance(text, Path):
        return Address(kind=UNIX, path=str(text))
    text = str(text)
    if not text:
        raise AddressError("empty address")
    if text.startswith("unix://"):
        return Address(kind=UNIX, path=text[len("unix://"):])
    if text.startswith("tcp://"):
        rest = text[len("tcp://"):]
        host, sep, port_text = rest.rpartition(":")
        if not sep:
            raise AddressError(
                f"bad TCP address {text!r}: expected tcp://HOST:PORT")
        return _tcp_address(host, port_text, text)
    # Bare HOST:PORT is TCP as long as it cannot be a file path.
    if ":" in text and "/" not in text:
        host, _, port_text = text.rpartition(":")
        if port_text.isdigit():
            return _tcp_address(host, port_text, text)
    return Address(kind=UNIX, path=text)


def require_tcp(text: str) -> Address:
    """Parse ``text`` and insist it is a TCP endpoint (the ``--tcp``
    flag's validator)."""
    address = parse_address(text)
    if address.kind != TCP:
        raise AddressError(
            f"{text!r} is not a TCP address; expected HOST:PORT "
            "(e.g. 127.0.0.1:7533, or :7533 for every interface)")
    return address
