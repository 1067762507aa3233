"""Determinism checker (RPL801/RPL802).

Byte-identical output is this repo's load-bearing test oracle: wire
bytes must equal file bytes, worker folds must equal serial folds, and
two lint runs must render the same report.  The classic way those
guarantees rot is *iteration order*: a ``set`` iterates in hash order
(salted per process for strings), and the OS returns ``listdir``/
``glob`` entries in on-disk order — both can differ between two runs
that are otherwise identical.  Python's ``dict`` is insertion-ordered
and therefore fine *when the insertions are ordered*; sets never are.

* RPL801 — iterating a value that is statically a ``set`` (a set
  literal, a set comprehension, a ``set()``/``frozenset()`` call, or
  a local assigned one of those) in a ``for`` loop, a comprehension,
  a ``join``, or a ``list``/``tuple`` conversion, without a
  ``sorted(...)`` wrapper.  Membership tests and set algebra are of
  course fine — only *iteration* leaks the order.
* RPL802 — ``os.listdir``/``os.scandir``/``glob.glob``/``glob.iglob``
  or a ``Path.iterdir()``/``.glob()``/``.rglob()`` call whose result
  is consumed without ``sorted(...)``: on-disk order is filesystem-
  and history-dependent, so any derived output (reports, file walks
  feeding a project model) changes between hosts.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .findings import Finding
from .project import Module, Project

#: Calls returning filesystem entries in on-disk order.
_FS_LISTING = {("os", "listdir"), ("os", "scandir"), ("glob", "glob"),
               ("glob", "iglob")}

#: ``Path`` methods returning entries in on-disk order.
_PATH_LISTING = {"iterdir", "glob", "rglob"}

#: Names that make the enclosing call order-safe.
_ORDERERS = {"sorted", "min", "max", "sum", "len", "set", "frozenset",
             "any", "all", "Counter"}


def _dotted(node: ast.expr) -> Tuple[str, ...]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _is_set_expr(node: ast.expr, set_locals: Set[str]) -> bool:
    """Is ``node`` statically a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in set_locals:
        return True
    if isinstance(node, ast.BinOp) \
            and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                     ast.BitXor)):
        # Set algebra stays a set when either side is one.
        return _is_set_expr(node.left, set_locals) \
            or _is_set_expr(node.right, set_locals)
    return False


def _is_fs_listing(node: ast.expr) -> Optional[str]:
    """A label when ``node`` calls a filesystem-ordered listing."""
    if not isinstance(node, ast.Call):
        return None
    chain = _dotted(node.func)
    if chain[-2:] in _FS_LISTING or chain in _FS_LISTING:
        return ".".join(chain) + "()"
    if len(chain) >= 2 and chain[-1] in _PATH_LISTING:
        # `<something>.iterdir()` / `.glob()` / `.rglob()` — the Path
        # methods; dict.glob-alikes don't exist, so the name is enough.
        return ".".join(chain[-2:]) + "()"
    return None


class _ParentMap:
    def __init__(self, tree: ast.AST) -> None:
        self.parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[id(child)] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(id(node))


def _ordered_by_wrapper(node: ast.expr, parents: _ParentMap) -> bool:
    """Is ``node`` consumed by an order-insensitive or ordering
    wrapper (``sorted(x)``, ``len(x)``, ``x in s`` ...)?"""
    parent = parents.parent(node)
    if isinstance(parent, ast.Call) \
            and isinstance(parent.func, ast.Name) \
            and parent.func.id in _ORDERERS \
            and node in parent.args:
        return True
    if isinstance(parent, ast.Compare):
        return True  # membership / equality, not iteration
    return False


def _collect_set_locals(fn: ast.AST) -> Set[str]:
    """Locals assigned a set exactly once and never reassigned to a
    non-set (conservative: any non-set assignment drops the name)."""
    assigned: Dict[str, bool] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            is_set = _is_set_expr(node.value, set())
            if name in assigned:
                assigned[name] = assigned[name] and is_set
            else:
                assigned[name] = is_set
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and node.value is not None:
            assigned[node.target.id] = _is_set_expr(node.value, set())
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Name):
            assigned.setdefault(node.target.id, False)
    return {name for name, is_set in assigned.items() if is_set}


class DeterminismChecker:
    """RPL801/RPL802 over every module of the tree."""

    codes = ("RPL801", "RPL802")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            yield from self._check_module(module)

    def _check_module(self, module: Module) -> Iterator[Finding]:
        parents = _ParentMap(module.tree)
        scopes = [module.tree] + [
            node for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        seen: Set[Tuple[int, str]] = set()
        for scope in scopes:
            set_locals = _collect_set_locals(scope) \
                if scope is not module.tree else set()
            for finding in self._scan_scope(module, scope, set_locals,
                                            parents):
                key = (finding.line, finding.code)
                if key not in seen:
                    seen.add(key)
                    yield finding

    def _scan_scope(self, module: Module, scope: ast.AST,
                    set_locals: Set[str], parents: _ParentMap
                    ) -> Iterator[Finding]:
        for node in ast.walk(scope):
            iter_expr = None
            context = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_expr, context = node.iter, "a for loop"
            elif isinstance(node, ast.comprehension):
                iter_expr, context = node.iter, "a comprehension"
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and func.attr == "join" and node.args:
                    iter_expr, context = node.args[0], "a join"
                elif isinstance(func, ast.Name) \
                        and func.id in ("list", "tuple") and node.args:
                    iter_expr, context = node.args[0], \
                        f"a {func.id}() conversion"
            if iter_expr is None:
                continue
            if isinstance(iter_expr, ast.Call) \
                    and isinstance(iter_expr.func, ast.Name) \
                    and iter_expr.func.id == "sorted":
                continue
            if _is_set_expr(iter_expr, set_locals):
                yield Finding(
                    path=str(module.path), line=iter_expr.lineno,
                    code="RPL801",
                    message=f"iterating a set in {context}: set order "
                            "is hash order (salted per process), so "
                            "any derived output changes run to run — "
                            "wrap in sorted(...)")
                continue
            label = _is_fs_listing(iter_expr)
            if label is not None:
                yield Finding(
                    path=str(module.path), line=iter_expr.lineno,
                    code="RPL802",
                    message=f"{label} iterated in {context} without "
                            "sorted(...): the OS returns entries in "
                            "on-disk order, which differs between "
                            "hosts and histories")
        # Unsorted fs listings that are consumed other than by
        # iteration (assigned then iterated is caught above via the
        # local; direct returns of unsorted listings escape here).
        for node in ast.walk(scope):
            label = _is_fs_listing(node)
            if label is None:
                continue
            parent = parents.parent(node)
            if isinstance(parent, (ast.Return, ast.Yield)) \
                    and not _ordered_by_wrapper(node, parents):
                yield Finding(
                    path=str(module.path), line=node.lineno,
                    code="RPL802",
                    message=f"{label} returned without sorted(...): "
                            "callers inherit on-disk order — sort at "
                            "the source")
