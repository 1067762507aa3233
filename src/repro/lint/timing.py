"""Wall-clock timing checker (RPL601).

``time.time()`` is the wrong clock for measuring durations: it is
subject to NTP slew and step adjustments, so an interval measured with
it can come out negative or wildly wrong — and every latency histogram
and bench gate in this project is built on measured intervals.  The
project rule: :func:`time.perf_counter` for within-process timing,
:func:`time.monotonic` for timestamps that cross a fork (queue-wait
stamps — ``perf_counter`` is per-process on some platforms).
``time.time()`` keeps a legitimate niche — epoch timestamps for
display — which none of the library code needs; tests and fixtures
are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from .findings import Finding
from .project import Module, Project

_MESSAGE = ("time.time() measures the adjustable wall clock; time "
            "with time.perf_counter() (or time.monotonic() across "
            "forks)")


def is_timing_exempt(module: Module) -> bool:
    """Test trees measure and mock clocks however they like."""
    parts = module.rel_path.split("/")
    if any(part == "tests" for part in parts[:-1]):
        return True
    name = parts[-1]
    return name.startswith("test_") or name == "conftest.py"


def time_aliases(tree: ast.AST) -> tuple:
    """``(module_aliases, function_aliases)``: names bound to the
    ``time`` module and names bound to the ``time.time`` function."""
    modules: Set[str] = set()
    functions: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    modules.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom) \
                and node.module == "time" and node.level == 0:
            for alias in node.names:
                if alias.name == "time":
                    functions.add(alias.asname or "time")
    return modules, functions


class TimingChecker:
    """RPL601 over every non-test module."""

    codes = ("RPL601",)

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            yield from self._check_module(module)

    def _check_module(self, module: Module) -> Iterator[Finding]:
        if is_timing_exempt(module):
            return
        modules, functions = time_aliases(module.tree)
        if not modules and not functions:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr == "time" \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in modules:
                yield Finding(path=str(module.path),
                              line=node.lineno, code="RPL601",
                              message=_MESSAGE)
            elif isinstance(func, ast.Name) \
                    and func.id in functions:
                yield Finding(path=str(module.path),
                              line=node.lineno, code="RPL601",
                              message=_MESSAGE)
