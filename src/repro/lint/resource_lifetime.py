"""Resource-lifetime checker (RPL701/RPL702).

The index subsystem's whole economy rests on handles with *scoped*
lifetimes: an ``open()`` handle flushed and closed when mapping ends,
an ``np.memmap`` view valid only while its
:class:`~repro.index.store.MappingIndex` is open.  Python makes both
easy to get wrong silently — a handle that escapes a function unclosed
leaks until the GC gets around to it (and on the daemon that is an fd
leak per request), and a memmap view returned out of the ``with
open_index(...)`` block that owns it dereferences an unmapped page the
moment anyone touches it.

* RPL701 — a file/socket/mmap handle acquired *outside* a ``with``
  statement or ``try``/``finally`` close, then **escaping the
  function** (returned, yielded, stashed on ``self`` or a module
  global) with no ``.close()`` call in sight.  Handles that stay local
  and are explicitly closed, handles acquired as ``with`` items, and
  handles closed in a ``finally`` are all fine; so is a *factory*
  whose documented job is returning the open handle — suppress those
  with ``# lint: ignore[RPL701]`` and a justification.
* RPL702 — a ``return``/``yield`` inside a ``with open_index(...)
  as idx`` (or ``MappingIndex(...)``) block whose value references
  ``idx``: the mapping closes when the block exits, so the caller
  receives views into unmapped memory.  Returning *from outside* the
  block, or materializing (``np.array(idx...)``) first, is the fix.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from .findings import Finding
from .project import Module, Project

#: Calls that acquire an OS-level handle with a required close.
_ACQUIRERS: Set[Tuple[str, ...]] = {
    ("open",), ("io", "open"), ("gzip", "open"), ("bz2", "open"),
    ("lzma", "open"), ("os", "fdopen"), ("socket", "socket"),
    ("socket", "create_connection"), ("mmap", "mmap"),
    ("tempfile", "TemporaryFile"), ("tempfile", "NamedTemporaryFile"),
}

#: Context factories owning memory-mapped state: a value derived from
#: their ``with``-target must not outlive the block (RPL702).
_MAPPING_CONTEXTS = {"open_index", "MappingIndex"}


def _dotted(node: ast.expr) -> Tuple[str, ...]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _acquires(node: ast.expr) -> Optional[str]:
    """A label when ``node`` is a handle-acquiring call, else None."""
    if not isinstance(node, ast.Call):
        return None
    chain = _dotted(node.func)
    if chain in _ACQUIRERS or chain[-2:] in _ACQUIRERS:
        return ".".join(chain) + "()"
    return None


def _names_in(expr: ast.expr) -> Set[str]:
    return {node.id for node in ast.walk(expr)
            if isinstance(node, ast.Name)}


def _class_closed_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attribute names the class visibly closes somewhere — any
    ``self.X.close()``/``.shutdown()`` in any method.  ``self.X =
    open(...)`` is the class-owns-the-handle pattern, not a leak, when
    ``X`` is in this set: the handle's lifetime is the object's."""
    closed: Set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("close", "shutdown") \
                and isinstance(node.func.value, ast.Attribute) \
                and isinstance(node.func.value.value, ast.Name):
            closed.add(node.func.value.attr)
    return closed


class _FunctionScan:
    """Track one function's acquired handles and how they end up."""

    def __init__(self, module: Module, fn: ast.FunctionDef,
                 class_closed: Set[str] = frozenset()) -> None:
        self.module = module
        self.fn = fn
        #: Attrs the enclosing class closes in *some* method: stashing
        #: a handle on one of these is ownership transfer, not a leak.
        self.class_closed = class_closed
        #: var name -> (line, label) for handles acquired into locals
        #: outside any with/try-finally protection.
        self.acquired: dict = {}
        #: var names with a visible ``.close()`` (or passed to
        #: ``contextlib.closing``/``ExitStack.enter_context``).
        self.closed: Set[str] = set()
        #: var name -> escape (line, how) — returned/yielded/stashed.
        self.escapes: dict = {}

    def run(self) -> Iterator[Finding]:
        self._walk_body(self.fn.body, protected=False)
        for name, (line, label) in sorted(self.acquired.items(),
                                          key=lambda kv: kv[1][0]):
            if name in self.closed:
                continue
            escape = self.escapes.get(name)
            if escape is None:
                continue
            escape_line, how = escape
            yield Finding(
                path=str(self.module.path), line=line, code="RPL701",
                message=f"{label} assigned to {name!r} outside "
                        f"with/try-finally and {how} (line "
                        f"{escape_line}) with no close() on any path "
                        f"of {self.fn.name}(); the handle leaks — "
                        "scope it with `with`, or close it in a "
                        "finally")

    # -- statement walk -----------------------------------------------

    def _walk_body(self, body: List[ast.stmt], protected: bool) -> None:
        for stmt in body:
            self._walk_stmt(stmt, protected)

    def _walk_stmt(self, stmt: ast.stmt, protected: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # nested functions get their own scan
        if isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            # `with open(...) as f` scopes the handle; other handles
            # acquired in the body are still unprotected.
            self._walk_body(stmt.body, protected)
            return
        if isinstance(stmt, ast.Try):
            has_finally = bool(stmt.finalbody)
            self._walk_body(stmt.body, protected or has_finally)
            for handler in stmt.handlers:
                self._walk_body(handler.body, protected)
            self._walk_body(stmt.orelse, protected or has_finally)
            self._walk_body(stmt.finalbody, protected)
            return
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            label = _acquires(stmt.value)
            if label is not None and not protected:
                self.acquired[stmt.targets[0].id] = (stmt.lineno, label)
            self._scan_expr_stmt(stmt)
            return
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Attribute) \
                        or isinstance(target, ast.Subscript):
                    self._note_escape_assign(target, stmt)
            self._scan_expr_stmt(stmt)
            return
        if isinstance(stmt, (ast.Return, ast.Expr, ast.AugAssign,
                             ast.AnnAssign, ast.Raise, ast.Assert,
                             ast.Delete)):
            self._scan_expr_stmt(stmt)
            return
        # Compound statements (if/for/while): child statements share
        # the enclosing protection level.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._walk_stmt(child, protected)

    def _note_escape_assign(self, target: ast.expr,
                            stmt: ast.Assign) -> None:
        if isinstance(stmt.value, ast.Name):
            name = stmt.value.id
            how = "stashed on an attribute" \
                if isinstance(target, ast.Attribute) \
                else "stashed in a container"
            self.escapes.setdefault(name, (stmt.lineno, how))
        label = _acquires(stmt.value)
        if label is not None and isinstance(target, ast.Attribute) \
                and target.attr not in self.class_closed:
            # Direct `self.x = open(...)`: acquired and escaped at once
            # — unless the class closes self.x in some method, in which
            # case the object owns the handle's lifetime.
            synthetic = f"<attr:{target.attr}:{stmt.lineno}>"
            self.acquired[synthetic] = (stmt.lineno, label)
            self.escapes[synthetic] = (stmt.lineno,
                                       "stashed on an attribute")

    def _scan_expr_stmt(self, stmt: ast.stmt) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and func.attr in ("close", "shutdown") \
                        and isinstance(func.value, ast.Name):
                    self.closed.add(func.value.id)
                elif isinstance(func, ast.Name) \
                        and func.id == "closing" and node.args \
                        and isinstance(node.args[0], ast.Name):
                    self.closed.add(node.args[0].id)
                elif isinstance(func, ast.Attribute) \
                        and func.attr == "enter_context" and node.args \
                        and isinstance(node.args[0], ast.Name):
                    self.closed.add(node.args[0].id)
            elif isinstance(node, (ast.Return, ast.Yield,
                                   ast.YieldFrom)):
                value = node.value
                if value is None:
                    continue
                how = "returned" if isinstance(node, ast.Return) \
                    else "yielded"
                for name in _names_in(value):
                    self.escapes.setdefault(
                        name, (getattr(node, "lineno", stmt.lineno),
                               how))


def _mapping_context_target(item: ast.withitem) -> Optional[str]:
    """The as-name when a with-item opens a mapping-owning context."""
    expr = item.context_expr
    if not isinstance(expr, ast.Call):
        return None
    chain = _dotted(expr.func)
    if not chain or chain[-1] not in _MAPPING_CONTEXTS:
        return None
    if isinstance(item.optional_vars, ast.Name):
        return item.optional_vars.id
    return None


class ResourceLifetimeChecker:
    """RPL701/RPL702 over every module of the tree."""

    codes = ("RPL701", "RPL702")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            yield from self._check_module(module)

    def _check_module(self, module: Module) -> Iterator[Finding]:
        class_closed: dict = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                closed = _class_closed_attrs(node)
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                        class_closed[id(member)] = closed
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from _FunctionScan(
                    module, node,
                    class_closed.get(id(node), frozenset())).run()
        yield from self._check_escaping_views(module)

    # -- RPL702: views outliving their mapping -------------------------

    def _check_escaping_views(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                target = _mapping_context_target(item)
                if target is None:
                    continue
                for stmt in ast.walk(node):
                    value = None
                    if isinstance(stmt, ast.Return):
                        value, how = stmt.value, "returned"
                    elif isinstance(stmt, (ast.Yield, ast.YieldFrom)):
                        value, how = stmt.value, "yielded"
                    if value is None or target not in _names_in(value):
                        continue
                    yield Finding(
                        path=str(module.path), line=stmt.lineno,
                        code="RPL702",
                        message=f"a value derived from {target!r} is "
                                f"{how} from inside its `with` block; "
                                "the memory mapping closes when the "
                                "block exits, so the caller gets "
                                "views into unmapped pages — return "
                                "outside the block or materialize "
                                "with np.array() first")
