"""Concurrency-safety checker (RPL1001–RPL1005).

The daemon already runs one thread per connection
(``MapServer._serve_connection``) and the FASTA reader runs a
prefetcher thread (``read_ahead``'s nested ``produce``), and ROADMAP
item 1 grows that into a fully concurrent serving tier.  This family
answers the question that growth depends on: *which state is actually
safe to share between threads, and which lock guards it?*

The analysis runs on the project :class:`~repro.lint.callgraph
.CallGraph` in four stages:

1. **Thread roots.**  Every ``threading.Thread(target=X)`` spawn whose
   target resolves — a module function, a nested ``def`` (the
   prefetcher), or a bound method on a typed receiver
   (``self._serve_connection``) — becomes a root.  A spawn inside a
   loop, or a target spawned from several sites, is *multi-instance*:
   two copies of that root run concurrently with each other.
2. **Lock-set dataflow.**  Each thread-reachable function is
   summarized once — writes, read-modify-writes, resolved calls, lock
   acquisitions, blocking calls, each tagged with the locks *lexically*
   held at that point — then a worklist propagates entry lock-sets
   along call edges: a callee's **must**-held set is the intersection
   over every call path of ``caller's entry ∪ locks at the call site``
   (the meet only shrinks, so the fixpoint is cheap), and its
   **may**-held set the union (feeding the lock-order graph).
3. **Sharedness.**  A location — a module global written under a
   ``global`` declaration, or a ``(Class, attribute)`` pair written
   through a typed receiver — is *shared* when it is written from two
   distinct roots or from any multi-instance root.  Writes in
   ``__init__``/``__post_init__``/``__new__`` to ``self``, and writes
   through a receiver freshly constructed in the same function (the
   per-chunk ``MetricsRegistry()`` pattern), are exempt: that state is
   not yet, or never, shared.
4. **Findings.**

   * **RPL1001** — a write to shared state with an empty held
     lock-set (must-entry ∪ lexical).
   * **RPL1002** — the same, but a non-atomic read-modify-write
     (``x += 1``, ``d[k] = d[k] + v``, ``d[k] = d.get(k, 0) + v``):
     the racing interleaving *loses increments*, which is exactly the
     ``MetricsRegistry`` bug this family was built to catch.
   * **RPL1003** — lock-order inversion: the acquisition graph
     (edges ``A → B`` when ``B`` is acquired while ``A`` may be held)
     contains both directions of a pair.
   * **RPL1004** — a blocking call (``time.sleep``, ``select``,
     ``subprocess`` waits, socket ``recv``/``accept``, zero-argument
     ``.join()``/``.wait()``/``.get()``, timeout-less queue ``put``)
     lexically inside a ``with <lock>:`` block of thread-reachable
     code.  Lexical only, deliberately: a callee that blocks under a
     *caller's* lock is routinely a designed hand-off (the prefetch
     queue), and flagging it would drown the report.
   * **RPL1005** — mutating a collection inside its own
     ``for x in coll:`` loop (``del coll[k]``, ``coll[k] = ...``,
     ``coll.append/remove/pop/...``) in thread-reachable code.

Like the call graph it runs on, the analysis is deliberately
*under*-approximate: unresolved calls contribute no edges, untyped
receivers contribute no locations, and "guarded" means *some* lock is
held rather than proving it is the right one.  Every finding is
therefore on a resolved path from a real thread spawn.

Locks are recognized structurally (``threading.Lock()`` and friends,
``field(default_factory=threading.Lock)``) and by name (any callee or
variable/attribute whose name ends in ``lock`` — which covers
:func:`repro.util.sync.maybe_sanitize_lock`).  The runtime complement
to this static pass is :mod:`repro.util.sync`'s ``REPRO_SANITIZE=1``
mode, which asserts owner-thread and acquisition-order properties on
the live locks the checker models.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionNode
from .findings import Finding
from .project import Module, Project

#: ``threading`` constructors that produce a lock-like object.
_LOCK_CONSTRUCTORS = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
}

#: Methods whose writes to ``self`` are pre-publication by definition.
_INIT_METHODS = {"__init__", "__post_init__", "__new__"}

#: Collection methods that mutate their receiver (RPL1005).
_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem",
    "clear", "add", "discard", "update", "setdefault",
}

#: ``module.func`` calls that block the calling thread.
_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"), ("select", "select"),
    ("subprocess", "run"), ("subprocess", "call"),
    ("subprocess", "check_call"), ("subprocess", "check_output"),
}

#: Method names that block regardless of arguments.
_BLOCKING_METHODS = {"recv", "recv_into", "accept", "communicate"}


def _dotted(node: ast.expr) -> Tuple[str, ...]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _expr_key(node: ast.expr):
    """A structural key for Name/Attribute/Subscript chains that
    ignores Load/Store context (``ast.dump`` does not)."""
    if isinstance(node, ast.Name):
        return ("n", node.id)
    if isinstance(node, ast.Attribute):
        return ("a", _expr_key(node.value), node.attr)
    if isinstance(node, ast.Subscript):
        return ("s", _expr_key(node.value), _expr_key(node.slice))
    if isinstance(node, ast.Constant):
        return ("c", repr(node.value))
    return ("?", id(node))


def _is_lock_call(expr: ast.expr) -> bool:
    """Does ``expr`` construct (or wrap) a lock?  ``threading.Lock()``
    and friends, or any callee whose name ends in ``lock``
    (``maybe_sanitize_lock``)."""
    if not isinstance(expr, ast.Call):
        return False
    chain = _dotted(expr.func)
    if not chain:
        return False
    name = chain[-1]
    if name in _LOCK_CONSTRUCTORS:
        return True
    if name.lower().endswith("lock"):
        return True
    # ``field(default_factory=threading.Lock)`` dataclass locks.
    if name == "field":
        for keyword in expr.keywords:
            if keyword.arg == "default_factory":
                factory = _dotted(keyword.value)
                if factory and factory[-1] in _LOCK_CONSTRUCTORS:
                    return True
    return False


def _is_thread_spawn(call: ast.Call) -> Optional[ast.expr]:
    """The ``target=`` expression when ``call`` constructs a
    ``threading.Thread``, else ``None``."""
    chain = _dotted(call.func)
    if not chain or chain[-1] != "Thread":
        return None
    for keyword in call.keywords:
        if keyword.arg == "target":
            return keyword.value
    return None


def _blocking_label(call: ast.Call) -> Optional[str]:
    """A display label when ``call`` blocks the calling thread."""
    chain = _dotted(call.func)
    if len(chain) >= 2 and chain[-2:] in _BLOCKING_MODULE_CALLS:
        return ".".join(chain[-2:]) + "()"
    if not isinstance(call.func, ast.Attribute):
        return None
    attr = call.func.attr
    has_timeout = any(kw.arg == "timeout" for kw in call.keywords)
    if attr in _BLOCKING_METHODS:
        return f".{attr}()"
    if attr in ("join", "wait", "get") and not call.args \
            and not call.keywords:
        # Zero-argument forms only: ``str.join``/``dict.get`` always
        # take arguments, so these really are thread/queue waits.
        return f".{attr}()"
    if attr == "put" and len(call.args) == 1 and not has_timeout:
        receiver = _dotted(call.func.value)
        hint = receiver[-1].lower() if receiver else ""
        if "queue" in hint or "buffer" in hint or hint == "q":
            return ".put()"
    return None


class _Event:
    """One summarized action inside a function body."""

    __slots__ = ("kind", "line", "col", "locks", "location", "callee",
                 "lock", "label", "rmw")

    def __init__(self, kind: str, line: int, col: int,
                 locks: FrozenSet[str], location=None, callee=None,
                 lock: Optional[str] = None, label: str = "",
                 rmw: bool = False) -> None:
        self.kind = kind
        self.line = line
        self.col = col
        self.locks = locks
        self.location = location
        self.callee = callee
        self.lock = lock
        self.label = label
        self.rmw = rmw


class _Root:
    """One discovered thread root."""

    __slots__ = ("node", "multi", "spawned_in")

    def __init__(self, node: FunctionNode, multi: bool,
                 spawned_in: str) -> None:
        self.node = node
        self.multi = multi
        self.spawned_in = spawned_in


class _Summarizer:
    """Build the lexical event summary of one function."""

    def __init__(self, graph: CallGraph, node: FunctionNode,
                 global_locks: Set[Tuple[str, str]],
                 attr_locks: Set[Tuple[str, str]]) -> None:
        self.graph = graph
        self.node = node
        self.env = graph.local_env(node)
        self.global_locks = global_locks
        self.attr_locks = attr_locks
        self.events: List[_Event] = []
        self.fresh: Set[str] = set()
        self.globals_declared: Set[str] = set()
        for stmt in ast.walk(node.node):
            if isinstance(stmt, ast.Global):
                self.globals_declared.update(stmt.names)
            elif isinstance(stmt, ast.Assign) \
                    and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and graph.resolve_constructor(node, stmt.value) \
                    is not None:
                self.fresh.add(stmt.targets[0].id)

    # -- lock identity -------------------------------------------------

    def _global_lock_home(self, name: str) -> Optional[Tuple[str, str]]:
        """The ``(defining module dotted, name)`` entry of
        :attr:`global_locks` a bare name refers to — following
        ``from ... import name`` to the defining module, so every
        user of a shared lock gets the *same* key (lock-order edges
        must agree across modules)."""
        module = self.node.module
        if (module.dotted, name) in self.global_locks:
            return module.dotted, name
        project = self.graph.project
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ImportFrom):
                continue
            for alias in stmt.names:
                if (alias.asname or alias.name) != name:
                    continue
                if stmt.level == 0:
                    dotted = stmt.module or ""
                else:
                    dotted = project.resolve_relative(
                        module, stmt.level, stmt.module)
                if dotted is not None \
                        and (dotted, alias.name) in self.global_locks:
                    return dotted, alias.name
        return None

    def lock_key(self, expr: ast.expr) -> Optional[str]:
        """A stable identity for a lock-valued ``with`` expression, or
        ``None`` when the expression is not lock-like."""
        module = self.node.module
        if isinstance(expr, ast.Name):
            home = self._global_lock_home(expr.id)
            if home is not None:
                return f"{home[0]}:{home[1]}"
            if expr.id.lower().endswith("lock"):
                return f"{module.dotted}:{expr.id}"
            return None
        if isinstance(expr, ast.Attribute):
            owner = self.graph.type_of(self.node, expr.value, self.env)
            if owner is not None:
                key = (owner[1].name, expr.attr)
                if key in self.attr_locks \
                        or expr.attr.lower().endswith("lock"):
                    return f"{owner[1].name}.{expr.attr}"
                return None
            if expr.attr.lower().endswith("lock"):
                return f"?.{expr.attr}"
        return None

    # -- locations -----------------------------------------------------

    def _location(self, target: ast.expr):
        """``("attr", "Class.attr")`` / ``("global", "mod:NAME")`` for
        a write target, with a freshness verdict; ``None`` when the
        receiver cannot be located."""
        if isinstance(target, ast.Subscript):
            return self._location(target.value)
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                key = f"{self.node.module.dotted}:{target.id}"
                return ("global", key), False
            return None
        if isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and base.id in self.fresh:
                owner = self.graph.type_of(self.node, base, self.env)
                if owner is not None:
                    return (("attr", f"{owner[1].name}.{target.attr}"),
                            True)
                return None
            owner = self.graph.type_of(self.node, base, self.env)
            if owner is not None:
                return ("attr", f"{owner[1].name}.{target.attr}"), False
        return None

    def _is_rmw(self, target: ast.expr, value: ast.expr) -> bool:
        """``target = <expr reading target>`` — the check-then-act
        shape RPL1002 exists for."""
        key = _expr_key(target)
        base_key = _expr_key(target.value) \
            if isinstance(target, ast.Subscript) else None
        for sub in ast.walk(value):
            if isinstance(sub, (ast.Name, ast.Attribute,
                                ast.Subscript)) \
                    and _expr_key(sub) == key:
                return True
            if base_key is not None and isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Attribute) \
                    and sub.func.attr == "get" \
                    and _expr_key(sub.func.value) == base_key:
                return True
        return False

    # -- the walk ------------------------------------------------------

    def run(self) -> List[_Event]:
        self._walk(self.node.node.body, frozenset(), 0)
        return self.events

    def _walk(self, stmts, held: FrozenSet[str], loops: int) -> None:
        for stmt in stmts:
            self._visit(stmt, held, loops)

    def _visit(self, stmt: ast.stmt, held: FrozenSet[str],
               loops: int) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # its own node; reached through resolved calls
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in stmt.items:
                self._scan_expr(item.context_expr, held, loops)
                key = self.lock_key(item.context_expr)
                if key is not None:
                    self.events.append(_Event(
                        "acquire", item.context_expr.lineno,
                        item.context_expr.col_offset,
                        held | frozenset(acquired), lock=key))
                    acquired.append(key)
            self._walk(stmt.body, held | frozenset(acquired), loops)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, held, loops)
            self._loop_mutations(stmt, held)
            self._scan_expr_only(stmt.target, held, loops)
            self._walk(stmt.body, held, loops + 1)
            self._walk(stmt.orelse, held, loops + 1)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, held, loops)
            self._walk(stmt.body, held, loops + 1)
            self._walk(stmt.orelse, held, loops + 1)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, held, loops)
            self._walk(stmt.body, held, loops)
            self._walk(stmt.orelse, held, loops)
            return
        if isinstance(stmt, ast.Try):
            self._walk(stmt.body, held, loops)
            for handler in stmt.handlers:
                self._walk(handler.body, held, loops)
            self._walk(stmt.orelse, held, loops)
            self._walk(stmt.finalbody, held, loops)
            return
        # Leaf statements: writes + embedded expressions.
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._record_write(target, held,
                                   rmw=self._is_rmw(target, stmt.value))
            self._scan_expr(stmt.value, held, loops)
            return
        if isinstance(stmt, ast.AugAssign):
            self._record_write(stmt.target, held, rmw=True)
            self._scan_expr(stmt.value, held, loops)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._record_write(stmt.target, held,
                                   rmw=self._is_rmw(stmt.target,
                                                    stmt.value))
                self._scan_expr(stmt.value, held, loops)
            return
        self._scan_expr(stmt, held, loops)

    def _record_write(self, target: ast.expr, held: FrozenSet[str],
                      rmw: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_write(element, held, rmw=rmw)
            return
        if not isinstance(target, (ast.Name, ast.Attribute,
                                   ast.Subscript)):
            return
        located = self._location(target)
        if located is None:
            return
        location, fresh = located
        if fresh:
            return
        # self-writes in construction methods are pre-publication.
        if self.node.node.name in _INIT_METHODS \
                and isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id in ("self", "cls"):
            return
        base: ast.expr = target
        while isinstance(base, ast.Subscript):
            base = base.value
        label = ".".join(_dotted(base)) or location[1]
        self.events.append(_Event(
            "rmw" if rmw else "write", target.lineno,
            target.col_offset, held, location=location, label=label))

    def _scan_expr_only(self, node: ast.expr, held, loops) -> None:
        """Targets of a ``for`` can be subscript stores too."""
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            self._record_write(node, held, rmw=False)

    @staticmethod
    def _own_calls(node: ast.AST) -> Iterator[ast.Call]:
        """Every ``Call`` under ``node`` that belongs to *this*
        function — nested ``def``/``lambda`` bodies are their own
        nodes and are pruned."""
        stack: List[ast.AST] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, (ast.FunctionDef,
                                    ast.AsyncFunctionDef,
                                    ast.Lambda)) and current is not node:
                continue
            stack.extend(ast.iter_child_nodes(current))
            if isinstance(current, ast.Call):
                yield current

    def _scan_expr(self, node: ast.AST, held: FrozenSet[str],
                   loops: int) -> None:
        """Calls (resolved edges, spawns, blocking) inside one
        statement or expression, skipping nested defs."""
        for sub in self._own_calls(node):
            target = _is_thread_spawn(sub)
            if target is not None:
                spawned = self.graph.resolve_callable(
                    self.node, target, self.env)
                if spawned is not None:
                    self.events.append(_Event(
                        "spawn", sub.lineno, sub.col_offset, held,
                        callee=spawned,
                        label="loop" if loops else "once"))
                continue
            label = _blocking_label(sub)
            if label is not None and held:
                self.events.append(_Event(
                    "blocking", sub.lineno, sub.col_offset, held,
                    label=label))
            for callee in self._dispatch_targets(sub):
                self.events.append(_Event(
                    "call", sub.lineno, sub.col_offset, held,
                    callee=callee))
            callee = self.graph.resolve_callable(self.node, sub.func,
                                                 self.env)
            if callee is not None:
                self.events.append(_Event(
                    "call", sub.lineno, sub.col_offset, held,
                    callee=callee))

    def _dispatch_targets(self, call: ast.Call) -> List[FunctionNode]:
        """``getattr(obj, f"_op_{op}")``-style dynamic dispatch on a
        typed receiver: every method whose name starts with the
        f-string's literal prefix is a potential callee (the daemon's
        ``_dispatch_line`` seam)."""
        if not (isinstance(call.func, ast.Name)
                and call.func.id == "getattr" and len(call.args) >= 2):
            return []
        owner = self.graph.type_of(self.node, call.args[0], self.env)
        name = call.args[1]
        if owner is None or not isinstance(name, ast.JoinedStr) \
                or not name.values \
                or not isinstance(name.values[0], ast.Constant):
            return []
        prefix = str(name.values[0].value)
        if not prefix:
            return []
        methods = self.graph.project.methods(owner[0], owner[1])
        out: List[FunctionNode] = []
        for method_name in sorted(methods):
            if method_name.startswith(prefix):
                node = self.graph.node_for(methods[method_name])
                if node is not None:
                    out.append(node)
        return out

    def _loop_mutations(self, stmt: ast.For, held) -> None:
        """RPL1005: mutations of the iterated object in its own loop
        body (lexical)."""
        if not isinstance(stmt.iter, (ast.Name, ast.Attribute)):
            return
        iter_key = _expr_key(stmt.iter)
        iter_label = ".".join(_dotted(stmt.iter))
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Delete):
                for target in sub.targets:
                    if isinstance(target, ast.Subscript) \
                            and _expr_key(target.value) == iter_key:
                        self.events.append(_Event(
                            "loop_mut", sub.lineno, sub.col_offset,
                            held, label=f"del {iter_label}[...]"))
            elif isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Subscript) \
                            and _expr_key(target.value) == iter_key:
                        self.events.append(_Event(
                            "loop_mut", sub.lineno, sub.col_offset,
                            held, label=f"{iter_label}[...] = ..."))
            elif isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Attribute) \
                    and sub.func.attr in _MUTATING_METHODS \
                    and _expr_key(sub.func.value) == iter_key:
                self.events.append(_Event(
                    "loop_mut", sub.lineno, sub.col_offset, held,
                    label=f"{iter_label}.{sub.func.attr}(...)"))


class _Analysis:
    """One full concurrency analysis over a project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = CallGraph.build(project)
        self.global_locks: Set[Tuple[str, str]] = set()
        self.attr_locks: Set[Tuple[str, str]] = set()
        self._summaries: Dict[int, List[_Event]] = {}
        self._collect_locks()

    # -- lock discovery ------------------------------------------------

    def _collect_locks(self) -> None:
        for module in self.project.modules:
            for stmt in module.tree.body:
                targets: List[ast.expr] = []
                value = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets, value = [stmt.target], stmt.value
                if value is not None and _is_lock_call(value):
                    for target in targets:
                        if isinstance(target, ast.Name):
                            self.global_locks.add(
                                (module.dotted, target.id))
                if isinstance(stmt, ast.ClassDef):
                    self._collect_class_locks(module, stmt)

    def _collect_class_locks(self, module: Module,
                             cls: ast.ClassDef) -> None:
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name) \
                    and item.value is not None \
                    and _is_lock_call(item.value):
                self.attr_locks.add((cls.name, item.target.id))
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and _is_lock_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        self.attr_locks.add((cls.name, target.attr))

    # -- summaries -----------------------------------------------------

    def summary(self, node: FunctionNode) -> List[_Event]:
        cached = self._summaries.get(id(node.node))
        if cached is None:
            cached = _Summarizer(self.graph, node, self.global_locks,
                                 self.attr_locks).run()
            self._summaries[id(node.node)] = cached
        return cached

    # -- roots ---------------------------------------------------------

    def discover_roots(self) -> List[_Root]:
        spawns: Dict[int, List[Tuple[FunctionNode, str, bool]]] = {}
        order: List[FunctionNode] = []
        for node in sorted(self.graph.nodes(), key=lambda n: n.key):
            for event in self.summary(node):
                if event.kind != "spawn":
                    continue
                target = event.callee
                if id(target.node) not in spawns:
                    spawns[id(target.node)] = []
                    order.append(target)
                spawns[id(target.node)].append(
                    (node, node.qualname, event.label == "loop"))
        roots: List[_Root] = []
        for target in order:
            sites = spawns[id(target.node)]
            multi = len(sites) > 1 or any(in_loop
                                          for _, _, in_loop in sites)
            roots.append(_Root(target, multi, sites[0][1]))
        return roots

    # -- reachability + lock-set fixpoint ------------------------------

    def reach(self, root: FunctionNode) -> List[FunctionNode]:
        seen: Set[int] = set()
        ordered: List[FunctionNode] = []
        worklist = [root]
        while worklist:
            node = worklist.pop(0)
            if id(node.node) in seen:
                continue
            seen.add(id(node.node))
            ordered.append(node)
            for event in self.summary(node):
                if event.kind in ("call", "spawn") \
                        and event.callee is not None:
                    worklist.append(event.callee)
        return ordered

    def locksets(self, roots: List[_Root]):
        """``(must, may)`` entry lock-sets for every thread-reachable
        function.  ``must`` meets by intersection, ``may`` joins by
        union; both reach a fixpoint because the lattice is finite."""
        must: Dict[int, FrozenSet[str]] = {}
        may: Dict[int, FrozenSet[str]] = {}
        worklist: List[FunctionNode] = []
        for root in roots:
            key = id(root.node.node)
            if key not in must:
                must[key] = frozenset()
                may[key] = frozenset()
                worklist.append(root.node)
        while worklist:
            node = worklist.pop(0)
            entry_must = must[id(node.node)]
            entry_may = may[id(node.node)]
            for event in self.summary(node):
                if event.kind not in ("call", "spawn") \
                        or event.callee is None:
                    continue
                callee = event.callee
                key = id(callee.node)
                if event.kind == "spawn":
                    # A new thread starts with nothing held.
                    call_must: FrozenSet[str] = frozenset()
                    call_may: FrozenSet[str] = frozenset()
                else:
                    call_must = entry_must | event.locks
                    call_may = entry_may | event.locks
                old_must = must.get(key)
                new_must = call_must if old_must is None \
                    else old_must & call_must
                new_may = may.get(key, frozenset()) | call_may
                if old_must is None or new_must != old_must \
                        or new_may != may[key]:
                    must[key] = new_must
                    may[key] = new_may
                    worklist.append(callee)
        return must, may

    # -- findings ------------------------------------------------------

    def run(self) -> Iterator[Finding]:
        roots = self.discover_roots()
        if not roots:
            return
        reach_by_root: Dict[int, List[FunctionNode]] = {
            id(root.node.node): self.reach(root.node)
            for root in roots}
        # Which roots reach each function / write each location.
        roots_of_fn: Dict[int, List[_Root]] = {}
        for root in roots:
            for node in reach_by_root[id(root.node.node)]:
                roots_of_fn.setdefault(id(node.node), []).append(root)
        location_roots: Dict[Tuple[str, str], List[_Root]] = {}
        for root in roots:
            for node in reach_by_root[id(root.node.node)]:
                for event in self.summary(node):
                    if event.kind in ("write", "rmw"):
                        touched = location_roots.setdefault(
                            event.location, [])
                        if root not in touched:
                            touched.append(root)
        must, may = self.locksets(roots)
        findings: Dict[Tuple[str, int, str], Finding] = {}

        def emit(module: Module, line: int, code: str,
                 message: str) -> None:
            findings.setdefault(
                (str(module.path), line, code),
                Finding(path=str(module.path), line=line, code=code,
                        message=message))

        ordered_fns: List[FunctionNode] = []
        seen_fns: Set[int] = set()
        for root in roots:
            for node in reach_by_root[id(root.node.node)]:
                if id(node.node) not in seen_fns:
                    seen_fns.add(id(node.node))
                    ordered_fns.append(node)

        order_edges: Dict[Tuple[str, str],
                          Tuple[Module, int, str]] = {}
        for node in ordered_fns:
            entry_must = must.get(id(node.node), frozenset())
            entry_may = may.get(id(node.node), frozenset())
            reaching = roots_of_fn.get(id(node.node), [])
            root_names = sorted({root.node.qualname
                                 for root in reaching})
            via = root_names[0] if root_names else "?"
            if len(root_names) > 1:
                via += f" (+{len(root_names) - 1} more)"
            for event in self.summary(node):
                held = entry_must | event.locks
                if event.kind in ("write", "rmw"):
                    touched = location_roots.get(event.location, [])
                    shared = len(touched) >= 2 \
                        or any(root.multi for root in touched)
                    if not shared or held:
                        continue
                    if event.kind == "rmw":
                        emit(node.module, event.line, "RPL1002",
                             f"non-atomic read-modify-write of "
                             f"{event.label} ({event.location[1]}) in "
                             f"thread-reachable code "
                             f"({node.qualname}, via thread root "
                             f"{via}) with no lock held — concurrent "
                             "threads lose updates")
                    else:
                        emit(node.module, event.line, "RPL1001",
                             f"write to shared {event.location[1]} "
                             f"({event.label}) in thread-reachable "
                             f"code ({node.qualname}, via thread root "
                             f"{via}) with no lock held")
                elif event.kind == "acquire":
                    for prior in sorted(entry_may | event.locks):
                        if prior == event.lock:
                            continue
                        edge = (prior, event.lock)
                        if edge not in order_edges:
                            order_edges[edge] = (node.module,
                                                 event.line,
                                                 node.qualname)
                elif event.kind == "blocking":
                    emit(node.module, event.line, "RPL1004",
                         f"blocking call {event.label} while holding "
                         f"{', '.join(sorted(event.locks))} in "
                         f"thread-reachable code ({node.qualname}) — "
                         "every thread waiting on the lock stalls "
                         "behind it")
                elif event.kind == "loop_mut":
                    emit(node.module, event.line, "RPL1005",
                         f"{event.label} mutates the collection being "
                         f"iterated in thread-reachable code "
                         f"({node.qualname}); mutation during "
                         "iteration raises or skips entries")
        for (first, second), (module, line, qual) in \
                sorted(order_edges.items()):
            if (second, first) in order_edges and first < second:
                other = order_edges[(second, first)]
                emit(module, line, "RPL1003",
                     f"lock-order inversion: {qual} acquires "
                     f"{second} while holding {first}, but "
                     f"{other[2]} acquires them in the opposite "
                     f"order ({other[0].rel_path}:{other[1]}) — "
                     "two threads can deadlock")
                emit(other[0], other[1], "RPL1003",
                     f"lock-order inversion: {other[2]} acquires "
                     f"{first} while holding {second}, but {qual} "
                     f"acquires them in the opposite order "
                     f"({module.rel_path}:{line}) — two threads can "
                     "deadlock")
        for key in sorted(findings):
            yield findings[key]


class ConcurrencyChecker:
    """RPL1001–RPL1005, lock-set dataflow from thread spawns."""

    codes = ("RPL1001", "RPL1002", "RPL1003", "RPL1004", "RPL1005")

    def check(self, project: Project) -> Iterator[Finding]:
        if not any("Thread" in module.source
                   for module in project.modules):
            return  # no thread spawns anywhere: nothing to analyze
        yield from _Analysis(project).run()
