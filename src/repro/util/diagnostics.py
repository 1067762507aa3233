"""The one stderr diagnostics channel for library code.

Library modules must never ``print()``: for the serve daemon, stdout
*is* the wire, and a stray diagnostic interleaved with record output
corrupts the stream (the project linter, ``tools/lint``, enforces
this as RPL501).  Every human-directed note from below the CLI goes
through here instead — one format, one stream, one place to redirect
in tests.

Verbosity is a single knob with two inputs: the ``REPRO_QUIET``
environment variable (any value except ``""``/``"0"``/``"false"``/
``"no"`` silences notes and warnings — the right form for scripts and
CI pipelines that wrap the CLI) and :func:`set_quiet` (what the
``repro --quiet`` flag calls; an explicit setting overrides the
environment).  Quiet suppresses the *advisory* channel only — errors
still raise, and record output is never touched.
"""

from __future__ import annotations

import os
import sys
from typing import Optional

#: Tri-state override: ``None`` consults ``REPRO_QUIET`` per call
#: (so monkeypatched environments behave), ``True``/``False`` pin it.
_QUIET: Optional[bool] = None

#: ``REPRO_QUIET`` values that mean "not quiet" (everything else,
#: including bare ``REPRO_QUIET=``\ *anything*, silences).
_FALSY = ("", "0", "false", "no")


def set_quiet(value: Optional[bool]) -> Optional[bool]:
    """Pin (or with ``None`` unpin) quiet mode; returns the previous
    override so tests can restore it."""
    global _QUIET
    previous = _QUIET
    _QUIET = value if value is None else bool(value)
    return previous


def is_quiet() -> bool:
    """Whether advisory diagnostics are currently suppressed."""
    if _QUIET is not None:
        return _QUIET
    return os.environ.get("REPRO_QUIET", "").lower() not in _FALSY


def note(message: str) -> None:
    """An informational note on stderr (``note: ...``)."""
    if is_quiet():
        return
    sys.stderr.write(f"note: {message}\n")


def warn(message: str) -> None:
    """A warning on stderr (``warning: ...``)."""
    if is_quiet():
        return
    sys.stderr.write(f"warning: {message}\n")
