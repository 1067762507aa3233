"""Fork-safety checker (RPL101–RPL104).

The streaming executor's whole design rests on one invariant: the
pipeline snapshot registered in ``_FORK_STATE`` just before the worker
pool forks — and every line of code a forked ``_stream_worker`` can
reach — must be fork-safe.  A ``threading.Lock`` captured pre-fork is
inherited *in whatever state it was in* (a child can deadlock on a lock
no thread of its process holds); an open file or socket fd is shared
with the parent (interleaved writes, double closes); the legacy
``np.random``/``random`` module singletons make every child repeat the
same "random" stream.  The one sanctioned shared handle is the
memory-mapped index (``np.memmap`` is copy-on-write by design), which
is why this checker has nothing to say about it.

Reachability is computed on the project-wide
:class:`~repro.lint.callgraph.CallGraph` — resolved calls followed
through imports, re-exports, method tables, and the ``_FORK_STATE``
dataflow seam — starting from every ``_stream_worker`` definition in
the tree.  Unlike PR 6's name-level approximation this crosses module
boundaries (a worker-reachable helper in ``core/query.py`` is in
scope) and never matches by bare name: a call the graph cannot resolve
contributes no reachability, so a sanctioned-looking finding really is
on a resolved path from the worker.

* RPL101/102/103 flag threading-primitive construction, fd-opening
  calls, and legacy global-RNG references inside worker-reachable
  functions, wherever those functions live;
* RPL104 independently scans every class and module-level global of a
  ``_FORK_STATE`` module — and of the module defining any class the
  project stores into ``_FORK_STATE[...]`` — for attributes assigned a
  fork-unsafe resource: objects of these classes are exactly what gets
  stashed in ``_FORK_STATE`` pre-fork.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from .callgraph import CallGraph, FunctionNode
from .findings import Finding
from .project import Module, Project

#: threading constructors whose instances must not cross a fork.
_THREADING_PRIMITIVES = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier", "Thread", "Timer", "local",
}

#: ``module.attr`` calls that open an OS-level file descriptor.
_FD_OPENERS = {
    ("socket", "socket"), ("socket", "create_connection"),
    ("socket", "socketpair"), ("os", "open"), ("os", "pipe"),
    ("os", "fdopen"), ("tempfile", "TemporaryFile"),
    ("tempfile", "NamedTemporaryFile"), ("tempfile", "mkstemp"),
    ("gzip", "open"), ("bz2", "open"), ("lzma", "open"),
    ("io", "open"),
}

#: ``np.random`` attributes that do NOT touch the legacy global
#: singleton (everything else does).
_NP_RANDOM_SAFE = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "RandomState",
}

#: Legacy ``random`` module functions sharing the global Mersenne
#: Twister instance.
_RANDOM_GLOBALS = {
    "random", "seed", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "normalvariate",
    "betavariate", "expovariate", "getrandbits",
}

#: Calls whose *result stashed on an object* is fork-unsafe (RPL104):
#: RNG instances on top of the fd openers and threading primitives —
#: a generator captured pre-fork deals every worker the same stream.
_RNG_FACTORIES = {("random", "default_rng"), ("random", "RandomState")}


def is_fork_module(module: Module) -> bool:
    """Does this module participate in the fork protocol (defines
    ``_FORK_STATE`` or a ``_stream_worker``)?"""
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) \
                        and target.id == "_FORK_STATE":
                    return True
        if isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and node.target.id == "_FORK_STATE":
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "_stream_worker":
            return True
    return False


def _dotted(node: ast.expr) -> Tuple[str, ...]:
    """``a.b.c`` as ``("a", "b", "c")`` (empty when not a name chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _threading_aliases(module: Module) -> Set[str]:
    """Names bound to threading primitives via ``from threading import
    Lock`` style imports."""
    aliases: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "threading":
            for alias in node.names:
                if alias.name in _THREADING_PRIMITIVES:
                    aliases.add(alias.asname or alias.name)
    return aliases


class _UnsafeCallScan:
    """Classify one expression as a fork-unsafe construction, if any."""

    def __init__(self, threading_aliases: Set[str]) -> None:
        self.threading_aliases = threading_aliases

    def classify(self, node: ast.expr):
        """``(code, label)`` when ``node`` constructs a fork-unsafe
        resource, else ``None``."""
        if not isinstance(node, ast.Call):
            return None
        chain = _dotted(node.func)
        if not chain:
            return None
        name = chain[-1]
        if len(chain) >= 2 and chain[-2] == "threading" \
                and name in _THREADING_PRIMITIVES:
            return "RPL101", f"threading.{name}()"
        if len(chain) == 1 and name in self.threading_aliases:
            return "RPL101", f"threading.{name}()"
        if chain == ("open",) or chain[-2:] in _FD_OPENERS:
            return "RPL102", ".".join(chain) + "()"
        if chain[-2:] in _RNG_FACTORIES and len(chain) >= 2:
            return "RNG", ".".join(chain) + "()"
        return None


def _legacy_rng_uses(fn: ast.FunctionDef) -> Iterator[Tuple[int, str]]:
    """``np.random.X`` / ``random.X`` global-state references."""
    for node in ast.walk(fn):
        chain = ()
        if isinstance(node, ast.Attribute):
            chain = _dotted(node)
        if len(chain) == 3 and chain[0] in ("np", "numpy") \
                and chain[1] == "random" \
                and chain[2] not in _NP_RANDOM_SAFE:
            yield node.lineno, f"{'.'.join(chain)}"
        elif len(chain) == 2 and chain[0] == "random" \
                and chain[1] in _RANDOM_GLOBALS:
            yield node.lineno, f"{'.'.join(chain)}"


class ForkSafetyChecker:
    """RPL101–RPL104, reachability via the project call graph."""

    codes = ("RPL101", "RPL102", "RPL103", "RPL104")

    def check(self, project: Project) -> Iterator[Finding]:
        has_fork_modules = any(is_fork_module(module)
                               for module in project.modules)
        if not has_fork_modules:
            return
        graph = CallGraph.build(project)
        yield from self._check_worker_reachable(graph)
        # A class stored into _FORK_STATE may live in another module
        # than the one defining the dict (the pipeline vs its pool).
        stashed_in = {module.dotted
                      for module, _cls in graph._fork_state_types}
        for module in project.modules:
            if is_fork_module(module) or module.dotted in stashed_in:
                yield from self._check_prefork_stash(module)

    # -- worker-reachable code (RPL101/102/103) -----------------------------

    def _check_worker_reachable(self, graph: CallGraph
                                ) -> Iterator[Finding]:
        aliases_by_module = {}
        for node in graph.reachable_from_name("_stream_worker"):
            module = node.module
            aliases = aliases_by_module.get(module.dotted)
            if aliases is None:
                aliases = aliases_by_module[module.dotted] = \
                    _threading_aliases(module)
            yield from self._scan_function(module, node, aliases)

    def _scan_function(self, module: Module, fn_node: FunctionNode,
                       aliases: Set[str]) -> Iterator[Finding]:
        scan = _UnsafeCallScan(aliases)
        fn = fn_node.node
        for node in ast.walk(fn):
            verdict = scan.classify(node)
            if verdict is not None:
                code, label = verdict
                if code == "RNG":
                    continue  # creating a fresh generator is safe
                kind = ("threading primitive"
                        if code == "RPL101" else "file descriptor")
                yield Finding(
                    path=str(module.path), line=node.lineno,
                    code=code,
                    message=f"{label} creates a {kind} in code "
                            f"reachable from _stream_worker "
                            f"({fn_node.qualname}); it would be "
                            "shared across the fork boundary")
        for line, label in _legacy_rng_uses(fn):
            yield Finding(
                path=str(module.path), line=line, code="RPL103",
                message=f"{label} uses global RNG state in code "
                        f"reachable from _stream_worker "
                        f"({fn_node.qualname}); every forked worker "
                        "inherits and repeats the same stream — "
                        "use a per-worker np.random.default_rng")

    # -- pre-fork stash (RPL104) --------------------------------------------

    def _check_prefork_stash(self, module: Module) -> Iterator[Finding]:
        scan = _UnsafeCallScan(_threading_aliases(module))

        def classify_stash(value: ast.expr):
            verdict = scan.classify(value)
            if verdict is None:
                return None
            code, label = verdict
            return label  # any unsafe construction is a bad stash

        for node in module.tree.body:
            # Module-level globals: inherited by every forked child.
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is not None:
                    label = classify_stash(value)
                    if label is not None:
                        yield Finding(
                            path=str(module.path), line=node.lineno,
                            code="RPL104",
                            message=f"module-level {label} in a "
                                    "_FORK_STATE module is inherited "
                                    "by every forked worker")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in ast.walk(node):
                if not isinstance(item, (ast.Assign, ast.AnnAssign)):
                    continue
                value = item.value
                if value is None:
                    continue
                targets = item.targets if isinstance(item, ast.Assign) \
                    else [item.target]
                stashes_self = any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self" for t in targets)
                if not stashes_self:
                    continue
                label = classify_stash(value)
                if label is not None:
                    yield Finding(
                        path=str(module.path), line=item.lineno,
                        code="RPL104",
                        message=f"{node.name} stashes {label} on the "
                                "instance; objects of a _FORK_STATE "
                                "module are captured pre-fork, and "
                                "this resource cannot cross the fork "
                                "boundary (the shared mmap is the one "
                                "sanctioned handle)")
