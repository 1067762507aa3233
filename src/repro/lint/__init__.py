"""`repro lint` — project-specific static analysis for the reproduction.

The generic linters cannot know this codebase's invariants: that the
:data:`~repro.core.executor._FORK_STATE` snapshot must stay fork-safe,
or that SAM/PAF/JSONL record text may only be rendered by the three
output formats (the daemon's wire==file byte-identity holds *by construction*
only while that stays true).  This package checks those invariants
statically, from the AST, so the bug classes previous PRs fixed by hand
— mutable dataclass defaults, chunk-relative name collisions behind a
duplicated renderer, a fork-unsafe capture — cannot regress silently.

Checkers and finding codes
--------------------------

===========  ===============================================================
Code         Meaning
===========  ===============================================================
``RPL101``   fork-safety: threading primitive created in worker-reachable
             code of a ``_FORK_STATE`` module (a lock held across ``fork``
             deadlocks every child)
``RPL102``   fork-safety: file handle / socket / pipe opened in
             worker-reachable code (fd shared across the fork boundary)
``RPL103``   fork-safety: legacy ``np.random`` / ``random`` *global* state
             referenced from worker-reachable code (every forked child
             inherits — and repeats — the same stream)
``RPL104``   fork-safety: fork-unsafe resource (open fd, socket, lock,
             RNG instance) stashed on an object or module global of a
             ``_FORK_STATE`` module, i.e. captured pre-fork
``RPL201``   mutable-default: function parameter defaulting to a
             list/dict/set/bytearray/ndarray (shared across every call)
``RPL202``   mutable-default: dataclass field with a mutable default
             (shared across every instance; use ``default_factory``)
``RPL401``   wire-identity: SAM/PAF record text assembled (tab-joined
             record fields) outside ``genome/{sam,paf,jsonl}.py``
``RPL402``   wire-identity: a wire tag/header literal (``AS:i:``,
             ``XM:Z:``, ``cg:Z:``, ``@HD``/``@SQ`` header) outside the
             registered renderer modules
``RPL501``   no-print: ``print()`` in a library module (route
             diagnostics through :mod:`repro.util.diagnostics`)
``RPL601``   timing: ``time.time()`` called outside tests (the wall
             clock is adjustable; time intervals with
             ``time.perf_counter()``, or ``time.monotonic()`` for
             stamps that cross a fork)
``RPL701``   resource-lifetime: a handle acquired from ``open`` /
             ``socket`` / ``mmap`` / ``open_index`` outside a ``with``
             or ``try/finally`` escapes the function unclosed — via
             ``return``, a container stash, or an attribute stash whose
             owning class never closes it (attributes the class closes
             in any method are ownership transfer, not leaks)
``RPL702``   resource-lifetime: a view derived from
             ``open_index(...)`` inside its ``with`` block is returned
             or yielded out of the block — the mmap closes at exit and
             the view dangles
``RPL801``   determinism: iterating a set into output order (a loop,
             ``join``, or ``list(...)`` conversion that feeds
             output) without ``sorted(...)`` — set order varies per
             process and breaks wire byte-identity
``RPL802``   determinism: ``os.listdir`` / ``glob`` / ``Path.iterdir``
             results used without sorting (OS-dependent order)
``RPL901``   obs-contract: a literal metric name at a ``counter`` /
             ``gauge`` / ``histogram`` call site that the catalog
             (:mod:`repro.obs.catalog`) does not declare, or declares
             with a different kind
``RPL902``   obs-contract: a dynamic (f-string) metric name whose
             ``*``-template is not a declared metric family
``RPL903``   obs-contract: catalog drift — a renderer in
             ``obs/render.py`` references an undeclared name, or the
             README metric table (between the ``lint:metric-catalog``
             markers) disagrees with the catalog's entries or kinds
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

The RPL1xxx family builds on the call graph: thread roots are
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

    handle = open(path)  # lint: ignore[RPL102] — closed before fork

Suppressions apply to the physical line of the finding only.

Running
-------

``repro lint`` walks ``src/repro`` (or explicit paths), runs the
checkers, prints findings as ``path:line  CODE  message``, and exits
0.  ``repro lint --strict`` exits 2 on any finding — the CI gate.
``--select``/``--ignore`` take comma-separated code prefixes, and a
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
