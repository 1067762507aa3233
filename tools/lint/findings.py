"""The one finding record, the code table, and suppression parsing.

Every checker reports :class:`Finding` objects; the driver sorts
them, drops the suppressed ones, and renders the
``path:line  CODE  message`` report.  Suppressions are per-line
``# lint: ignore[CODE1,CODE2]`` comments (bare ``# lint: ignore``
silences every code on that line); :func:`suppressed_codes` parses one
source line's suppression set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

#: Every finding code with its one-line meaning (the ``--list-codes``
#: table; the full spec lives in ``tools.lint``'s docstring).
CODES = {
    "RPL201": "mutable function-parameter default",
    "RPL202": "mutable dataclass field default (use default_factory)",
    "RPL501": "print() in a library module (use repro.util.diagnostics)",
    "RPL601": "time.time() used for timing (use time.perf_counter / "
              "time.monotonic)",
    "RPL1001": "write to shared state in thread-reachable code with "
               "no lock held",
    "RPL1002": "non-atomic read-modify-write on shared state in "
               "thread-reachable code (lost updates)",
    "RPL1003": "lock-order inversion between two locks (deadlock)",
    "RPL1004": "blocking call while holding a lock in "
               "thread-reachable code",
    "RPL1005": "collection mutated while being iterated in "
               "thread-reachable code",
}

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9_:,\s-]*)\])?")


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding.

    ``path`` is whatever the producing checker saw (the driver
    relativizes for display); ``line`` is 1-based.
    """

    path: str
    line: int
    code: str
    message: str

    def render(self, path: Optional[str] = None) -> str:
        """The report line: ``path:line  CODE  message``."""
        shown = path if path is not None else self.path
        return f"{shown}:{self.line}  {self.code}  {self.message}"

    def sort_key(self) -> Tuple:
        return (self.path, self.line, self.code)


@dataclass
class Suppression:
    """Codes silenced on one physical source line.

    ``codes`` empty means *every* code is silenced (the bare
    ``# lint: ignore`` form).
    """

    codes: FrozenSet[str] = field(default_factory=frozenset)

    def covers(self, finding: Finding) -> bool:
        return not self.codes or finding.code in self.codes


def suppressed_codes(source_line: str) -> Optional[Suppression]:
    """Parse one source line's ``# lint: ignore[...]`` comment.

    Returns ``None`` when the line carries no suppression; otherwise a
    :class:`Suppression` (empty code set = silence everything).
    """
    match = _SUPPRESS_RE.search(source_line)
    if match is None:
        return None
    body = match.group(1)
    if body is None:
        return Suppression()
    codes = frozenset(code.strip() for code in body.split(",")
                      if code.strip())
    return Suppression(codes=codes)
