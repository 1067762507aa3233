"""No-print checker (RPL501).

``print()`` in library code writes to whatever stdout happens to be —
which, for the serve daemon, *is the wire*: a stray diagnostic print
interleaves with record output and corrupts the stream.  All library
diagnostics go through :mod:`repro.util.diagnostics` (stderr, one
format); only the CLI front-end (``cli.py``) legitimately owns stdout.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .project import Module, Project

#: Root-relative module suffixes allowed to print (user-facing CLI).
_EXEMPT_SUFFIXES = ("cli.py",)


def is_print_exempt(module: Module) -> bool:
    rel = module.rel_path
    return any(rel == s or rel.endswith("/" + s)
               for s in _EXEMPT_SUFFIXES)


class NoPrintChecker:
    """RPL501 over every non-CLI module."""

    codes = ("RPL501",)

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            yield from self._check_module(module)

    def _check_module(self, module: Module) -> Iterator[Finding]:
        if not is_print_exempt(module):
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Name) \
                        and node.func.id == "print":
                    yield Finding(
                        path=str(module.path), line=node.lineno,
                        code="RPL501",
                        message="print() in library code; route "
                                "diagnostics through "
                                "repro.util.diagnostics (stderr) — "
                                "stdout belongs to the CLI and the "
                                "serve wire")
