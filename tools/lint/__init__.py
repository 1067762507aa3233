"""``tools.lint`` — project-specific static analysis for the reproduction.

The generic linters cannot know this codebase's invariants: that state
the daemon's threads share is written only under a lock, that library
code never prints to the stdout the serve wire owns, that defaults are
never shared mutable objects, that intervals are never timed on the
adjustable wall clock.  This package checks those invariants
statically, from the AST, so the bug classes previous PRs fixed by hand
— the ``ServerStats`` / ``MetricsRegistry`` lost-update races, a stray
pipeline ``print`` — cannot regress silently.  Invariants a behavioural
test already pins (wire byte-identity, resource lifetime,
output determinism, the metric catalog) are left to those tests.

Checkers and finding codes
--------------------------

===========  ===============================================================
Code         Meaning
===========  ===============================================================
``RPL201``   mutable-default: function parameter defaulting to a
             list/dict/set/bytearray/ndarray (shared across every call)
``RPL202``   mutable-default: dataclass field with a mutable default
             (shared across every instance; use ``default_factory``)
``RPL501``   no-print: ``print()`` in a library module (route
             diagnostics through :mod:`repro.util.diagnostics`)
``RPL601``   timing: ``time.time()`` called outside tests (the wall
             clock is adjustable; time intervals with
             ``time.perf_counter()``, or ``time.monotonic()`` for
             stamps that cross a fork)
``RPL1001``  concurrency: write to thread-shared state (an attribute
             or module global reached from several thread roots, or
             from one spawned multiply) with no lock held on any call
             path into the write
``RPL1002``  concurrency: non-atomic read-modify-write (``x += 1``,
             ``d[k] = d[k] + v``, ``d[k] = d.get(k, 0) + v``) of
             thread-shared state with no lock held — concurrent
             threads lose updates
``RPL1003``  concurrency: lock-order inversion — two thread-reachable
             functions acquire the same two locks in opposite orders,
             so two threads can deadlock
``RPL1004``  concurrency: blocking call (``time.sleep``, socket
             ``recv``/``accept``, ``subprocess`` waits, timeout-less
             ``join``/``wait``/``get``) while holding a lock — every
             thread waiting on the lock stalls behind it
``RPL1005``  concurrency: a collection mutated inside its own ``for``
             loop in thread-reachable code (raises or skips entries)
===========  ===============================================================

The RPL100x family builds on the call graph: thread roots are
``threading.Thread(target=...)`` targets (including ones resolved
through ``getattr(obj, f"_op_{...}")`` dispatch), locksets propagate
interprocedurally as the *intersection* over call paths (a helper
whose every caller holds the lock is guarded without a lexical
``with`` of its own), and lock identities follow imports to their
defining module so order edges agree across files.  The matching
*runtime* check is :mod:`repro.util.sync`: ``REPRO_SANITIZE=1`` wraps
the shared-state locks in :class:`~repro.util.sync.SanitizedLock`,
which raises on double-acquire, foreign release, and lock-order
inversion as they happen.

Suppression
-----------

Append ``# lint: ignore[CODE]`` (comma-separate several codes, or omit
the bracket to suppress every code) to the offending line::

    self.hits += 1  # lint: ignore[RPL1002] — single writer thread

Suppressions apply to the physical line of the finding only.

Running
-------

``python -m tools.lint.cli PATH...`` (from the repository root, with
nothing on ``PYTHONPATH``) walks the given roots, runs the checkers,
prints findings as ``path:line  CODE  message``, and exits 0; with
``--strict`` it exits 2 on any finding — the CI gate.  Paths are
required, and a root that is missing or holds no ``.py`` file exits
2, naming it.
``--select``/``--ignore`` take comma-separated code prefixes (one
that matches no code exits 2, naming it), and a
checker whose codes are all filtered out is not run at all, so
``--select RPL5`` costs one AST walk, not the call graph and the race
detector; ``--exclude FRAGMENT`` (repeatable) drops paths containing
the fragment; ``--json`` prints the report (findings, plus the
path/line/code of every suppressed finding) as JSON; ``--list-codes``
prints the table above.

Programmatic surface: :func:`run_lint` returns a :class:`LintReport`;
:class:`Finding` is the one record type; ``CHECKERS`` lists the checker
instances in the order they run.
"""

from __future__ import annotations

from .driver import CHECKERS, LintReport, lint_paths, run_lint
from .findings import CODES, Finding, suppressed_codes

__all__ = ["CHECKERS", "CODES", "Finding", "LintReport", "lint_paths",
           "run_lint", "suppressed_codes"]
