"""Project-wide call graph with light dataflow typing.

The concurrency checker needs to know which function a call site, or a
``threading.Thread(target=...)``, names — across module boundaries.
This module answers that on top of the
:class:`~repro.lint.project.Project` model: one :class:`CallGraph` per
project whose nodes are every function and method of the tree, and
whose call sites *resolve* — followed through relative imports,
``__init__`` re-exports, and single-inheritance method tables.

Resolution is driven by a small dataflow type environment rather than
name matching:

* parameter annotations naming a project class type the parameter
  (``def __init__(self, pipeline: GenPairPipeline)``);
* a local ``x = SomeClass(...)`` types ``x`` for the rest of the
  function;
* ``self`` is typed by the enclosing class, and ``self.attr`` by the
  class's attribute table (annotations plus ``self.attr = <typed
  expr>`` assignments found in any method);
* a call to a function or method whose **return annotation** names a
  project class types the call expression — this is how
  ``get_registry().counter(name).inc()`` connects the daemon's
  connection threads to :class:`~repro.obs.metrics.Counter.inc`.

Nested ``def``\\ s are indexed as nodes too (qualified as
``outer.inner``): they are addressable as **thread roots** when
passed to ``threading.Thread(target=...)``, which is what the
concurrency checker needs for ``read_ahead``'s prefetcher.

A call that does not resolve names no node: the graph is deliberately
*under*-approximate, and the concurrency checker says so in its
documentation.  There is no name-level fallback.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from .project import Module, Project, find_class

#: Follow at most this many re-export hops when resolving a symbol.
_MAX_HOPS = 6


class FunctionNode:
    """One function or method of the project, as a graph node."""

    __slots__ = ("module", "cls", "node", "qualname")

    def __init__(self, module: Module, node: ast.FunctionDef,
                 cls: Optional[ast.ClassDef] = None,
                 parent: Optional["FunctionNode"] = None) -> None:
        self.module = module
        self.cls = cls
        self.node = node
        if parent is not None:
            self.qualname = f"{parent.qualname}.{node.name}"
        elif cls is not None:
            self.qualname = f"{cls.name}.{node.name}"
        else:
            self.qualname = node.name

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.module.dotted, self.qualname, self.node.lineno)

    def __repr__(self) -> str:
        return f"FunctionNode({self.module.dotted}:{self.qualname})"


class _Bindings:
    """One module's top-level name bindings: local defs, classes, and
    imports (both ``import pkg.mod as m`` and ``from .mod import f``)."""

    def __init__(self, project: Project, module: Module) -> None:
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.classes: Dict[str, ast.ClassDef] = {}
        #: name -> dotted module (``import x.y as m`` / ``from . import m``)
        self.module_aliases: Dict[str, str] = {}
        #: name -> (defining Module, original symbol name)
        self.symbol_imports: Dict[str, Tuple[str, str]] = {}
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    if target in project.by_dotted:
                        self.module_aliases[bound] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    base = node.module or ""
                else:
                    resolved = project.resolve_relative(
                        module, node.level, node.module)
                    if resolved is None:
                        continue
                    base = resolved
                for alias in node.names:
                    bound = alias.asname or alias.name
                    # ``from .pkg import mod`` binds a submodule.
                    submodule = f"{base}.{alias.name}" if base \
                        else alias.name
                    if submodule in project.by_dotted:
                        self.module_aliases[bound] = submodule
                    elif base in project.by_dotted:
                        self.symbol_imports[bound] = (base, alias.name)


class CallGraph:
    """Resolved call edges over every function of a project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._bindings: Dict[str, _Bindings] = {
            module.dotted: _Bindings(project, module)
            for module in project.modules}
        #: Every node, keyed by the FunctionDef object's identity.
        self._nodes: Dict[int, FunctionNode] = {}
        #: Class attribute types: (module.dotted, class) -> attr -> ClassDef key
        self._attr_types: Dict[Tuple[str, str],
                               Dict[str, Tuple[Module, ast.ClassDef]]] = {}
        for module in project.modules:
            self._index_module(module)

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        return cls(project)

    # -- indexing ------------------------------------------------------

    def _index_module(self, module: Module) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_node(module, node, None)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self._add_node(module, item, node)

    def _add_node(self, module: Module, fn: ast.FunctionDef,
                  cls: Optional[ast.ClassDef],
                  parent: Optional[FunctionNode] = None) -> FunctionNode:
        node = FunctionNode(module, fn, cls, parent=parent)
        self._nodes[id(fn)] = node
        # Index nested defs too (see the module docstring): they are
        # addressable thread-spawn targets even though the enclosing
        # function's edges already cover their bodies.
        for child in ast.iter_child_nodes(fn):
            self._index_nested(module, child, node)
        return node

    def _index_nested(self, module: Module, stmt: ast.AST,
                      parent: FunctionNode) -> None:
        for child in ast.walk(stmt):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)) \
                    and id(child) not in self._nodes:
                self._add_node(module, child, parent.cls, parent=parent)

    def nested_functions(self, node: FunctionNode
                         ) -> Dict[str, FunctionNode]:
        """``name -> node`` for every def nested (at any depth) inside
        ``node`` — the thread-spawn target lookup for local workers."""
        out: Dict[str, FunctionNode] = {}
        for child in ast.walk(node.node):
            if child is node.node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = self._nodes.get(id(child))
                if nested is not None:
                    out.setdefault(child.name, nested)
        return out

    def node_for(self, fn: ast.FunctionDef) -> Optional[FunctionNode]:
        return self._nodes.get(id(fn))

    def nodes(self) -> Iterator[FunctionNode]:
        return iter(self._nodes.values())

    # -- symbol resolution ---------------------------------------------

    def _resolve_symbol(self, module: Module, name: str,
                        hops: int = _MAX_HOPS):
        """``("func", Module, FunctionDef, cls)`` or ``("class",
        Module, ClassDef)`` for a top-level name visible in ``module``,
        following re-export chains; ``None`` when it escapes the tree."""
        if hops <= 0:
            return None
        bindings = self._bindings.get(module.dotted)
        if bindings is None:
            return None
        if name in bindings.functions:
            return ("func", module, bindings.functions[name], None)
        if name in bindings.classes:
            return ("class", module, bindings.classes[name])
        imported = bindings.symbol_imports.get(name)
        if imported is not None:
            target_dotted, symbol = imported
            target = self.project.by_dotted.get(target_dotted)
            if target is not None:
                return self._resolve_symbol(target, symbol, hops - 1)
        return None

    def _resolve_class_named(self, module: Module, name: str
                             ) -> Optional[Tuple[Module, ast.ClassDef]]:
        resolved = self._resolve_symbol(module, name)
        if resolved is not None and resolved[0] == "class":
            return resolved[1], resolved[2]
        # Fall back to the Project resolver (handles annotations that
        # name classes imported under ``TYPE_CHECKING`` etc.).
        return self.project.resolve_name(module, name)

    def _annotation_class(self, module: Module, annotation
                          ) -> Optional[Tuple[Module, ast.ClassDef]]:
        """The project class a parameter/attribute annotation names
        (``Foo``, ``"Foo"``, ``Optional[Foo]``)."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) \
                and isinstance(annotation.value, str):
            name = annotation.value.split(".")[-1].strip("'\" ")
            return self._resolve_class_named(module, name)
        if isinstance(annotation, ast.Name):
            return self._resolve_class_named(module, annotation.id)
        if isinstance(annotation, ast.Attribute):
            return self._resolve_class_named(module, annotation.attr)
        if isinstance(annotation, ast.Subscript):
            # Optional[Foo] / "Foo | None" style wrappers: type by the
            # first project class found inside.
            for inner in ast.walk(annotation.slice):
                found = self._annotation_class(module, inner) \
                    if isinstance(inner, (ast.Name, ast.Attribute)) \
                    else None
                if found is not None:
                    return found
        if isinstance(annotation, ast.BinOp) \
                and isinstance(annotation.op, ast.BitOr):
            for side in (annotation.left, annotation.right):
                found = self._annotation_class(module, side)
                if found is not None:
                    return found
        return None

    # -- class attribute types -----------------------------------------

    def _class_attr_types(self, module: Module, cls: ast.ClassDef
                          ) -> Dict[str, Tuple[Module, ast.ClassDef]]:
        key = (module.dotted, cls.name)
        cached = self._attr_types.get(key)
        if cached is not None:
            return cached
        table: Dict[str, Tuple[Module, ast.ClassDef]] = {}
        self._attr_types[key] = table  # break recursion cycles
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                typed = self._annotation_class(module, item.annotation)
                if typed is not None:
                    table.setdefault(item.target.id, typed)
        for method in [n for n in cls.body
                       if isinstance(n, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]:
            env = self._parameter_types(module, method, cls)
            for stmt in ast.walk(method):
                if isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Attribute) \
                        and isinstance(stmt.target.value, ast.Name) \
                        and stmt.target.value.id == "self":
                    typed = self._annotation_class(module,
                                                   stmt.annotation)
                    if typed is not None:
                        table.setdefault(stmt.target.attr, typed)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Attribute) \
                                and isinstance(target.value, ast.Name) \
                                and target.value.id == "self":
                            typed = self._expression_type(
                                module, stmt.value, env, cls)
                            if typed is not None:
                                table.setdefault(target.attr, typed)
        return table

    # -- expression typing ---------------------------------------------

    def _parameter_types(self, module: Module, fn: ast.FunctionDef,
                         cls: Optional[ast.ClassDef]
                         ) -> Dict[str, Tuple[Module, ast.ClassDef]]:
        env: Dict[str, Tuple[Module, ast.ClassDef]] = {}
        params = list(fn.args.posonlyargs) + list(fn.args.args) \
            + list(fn.args.kwonlyargs)
        if cls is not None and params and params[0].arg in ("self",
                                                           "cls"):
            env[params[0].arg] = (module, cls)
            params = params[1:]
        for param in params:
            typed = self._annotation_class(module, param.annotation)
            if typed is not None:
                env[param.arg] = typed
        return env

    def _expression_type(self, module: Module, expr: ast.expr, env,
                         cls: Optional[ast.ClassDef]
                         ) -> Optional[Tuple[Module, ast.ClassDef]]:
        """The project class ``expr`` evaluates to, when inferable."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name):
            owner = env.get(expr.value.id)
            if owner is not None:
                attrs = self._class_attr_types(owner[0], owner[1])
                return attrs.get(expr.attr)
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                resolved = self._resolve_symbol(module, func.id)
                if resolved is not None:
                    if resolved[0] == "class":
                        return resolved[1], resolved[2]
                    # A plain function call: typed by its return
                    # annotation when it names a project class
                    # (``get_registry() -> MetricsRegistry``).
                    return self._annotation_class(resolved[1],
                                                  resolved[2].returns)
            elif isinstance(func, ast.Attribute):
                if isinstance(func.value, ast.Name):
                    bindings = self._bindings.get(module.dotted)
                    target_dotted = bindings.module_aliases.get(
                        func.value.id) if bindings else None
                    if target_dotted is not None:
                        target = self.project.by_dotted.get(
                            target_dotted)
                        if target is not None:
                            found = find_class(target.tree, func.attr)
                            if found is not None:
                                return target, found
                            resolved = self._resolve_symbol(target,
                                                            func.attr)
                            if resolved is not None \
                                    and resolved[0] == "func":
                                return self._annotation_class(
                                    resolved[1], resolved[2].returns)
                            return None
                # A method call on a typed receiver: typed by the
                # method's return annotation
                # (``registry.counter(name) -> Counter``).
                owner = self._expression_type(module, func.value, env,
                                              cls)
                if owner is not None:
                    methods = self.project.methods(owner[0], owner[1])
                    method = methods.get(func.attr)
                    if method is not None:
                        return self._annotation_class(owner[0],
                                                      method.returns)
            return None
        return None

    # -- public typing surface (the concurrency checker's seam) --------

    def local_env(self, node: FunctionNode
                  ) -> Dict[str, Tuple[Module, ast.ClassDef]]:
        """The dataflow type environment of one function: parameter
        annotations plus single-assignment locals."""
        module = node.module
        env = self._parameter_types(module, node.node, node.cls)
        for stmt in ast.walk(node.node):
            if isinstance(stmt, ast.Assign) \
                    and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                typed = self._expression_type(module, stmt.value, env,
                                              node.cls)
                if typed is not None:
                    env.setdefault(stmt.targets[0].id, typed)
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                typed = self._annotation_class(module, stmt.annotation)
                if typed is not None:
                    env.setdefault(stmt.target.id, typed)
        return env

    def type_of(self, node: FunctionNode, expr: ast.expr,
                env=None) -> Optional[Tuple[Module, ast.ClassDef]]:
        """The project class ``expr`` evaluates to inside ``node``
        (``env`` defaults to :meth:`local_env`)."""
        if env is None:
            env = self.local_env(node)
        return self._expression_type(node.module, expr, env, node.cls)

    def resolve_callable(self, node: FunctionNode, expr: ast.expr,
                         env=None) -> Optional[FunctionNode]:
        """The function/method node a callable-valued expression names
        from inside ``node`` — a bare function name, a nested def, a
        class (its ``__init__``), a module-alias attribute, or a bound
        method on a typed receiver (``self._serve_connection``).  The
        thread-spawn ``target=`` and per-call-site resolver."""
        if env is None:
            env = self.local_env(node)
        if isinstance(expr, ast.Name):
            nested = self.nested_functions(node).get(expr.id)
            if nested is not None:
                return nested
            resolved = self._resolve_symbol(node.module, expr.id)
            if resolved is not None:
                if resolved[0] == "func":
                    return self._nodes.get(id(resolved[2]))
                init = self.project.methods(resolved[1],
                                            resolved[2]).get("__init__")
                return self._nodes.get(id(init)) \
                    if init is not None else None
            return None
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name):
                bindings = self._bindings.get(node.module.dotted)
                alias = bindings.module_aliases.get(expr.value.id) \
                    if bindings else None
                if alias is not None:
                    target = self.project.by_dotted.get(alias)
                    if target is not None:
                        resolved = self._resolve_symbol(target,
                                                        expr.attr)
                        if resolved is None:
                            return None
                        if resolved[0] == "func":
                            return self._nodes.get(id(resolved[2]))
                        init = self.project.methods(
                            resolved[1], resolved[2]).get("__init__")
                        return self._nodes.get(id(init)) \
                            if init is not None else None
            owner = self._expression_type(node.module, expr.value, env,
                                          node.cls)
            if owner is not None:
                methods = self.project.methods(owner[0], owner[1])
                fn = methods.get(expr.attr)
                if fn is not None:
                    return self._nodes.get(id(fn))
        return None

    def resolve_constructor(self, node: FunctionNode, expr: ast.expr
                            ) -> Optional[Tuple[Module, ast.ClassDef]]:
        """The project class ``expr`` *constructs* when it is a direct
        ``SomeClass(...)`` call (never a method or factory returning
        one) — the concurrency checker's fresh-receiver test."""
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        if isinstance(func, ast.Name):
            resolved = self._resolve_symbol(node.module, func.id)
            if resolved is not None and resolved[0] == "class":
                return resolved[1], resolved[2]
            return None
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            bindings = self._bindings.get(node.module.dotted)
            alias = bindings.module_aliases.get(func.value.id) \
                if bindings else None
            if alias is not None:
                target = self.project.by_dotted.get(alias)
                if target is not None:
                    found = find_class(target.tree, func.attr)
                    if found is not None:
                        return target, found
        return None
