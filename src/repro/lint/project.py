"""The static project model the checkers share.

A :class:`Project` is a tree of parsed Python modules rooted at the
directory being linted (``src/repro`` for the real package, a fixture
directory in the tests).  Each :class:`Module` keeps its AST, source
lines, and root-relative identity — ``rel_path`` (posix, e.g.
``core/pipeline.py``) and ``dotted`` (``core.pipeline``) — so imports
resolve against the linted tree without hard-coding absolute paths.

The model also carries the small amount of cross-module resolution the
call graph needs: following ``from .x import Y`` /
``from ..pkg.mod import Y`` imports to the defining module, looking up
class definitions, and walking single-inheritance method resolution —
all within the linted tree (anything outside resolves to ``None``, and
the checkers degrade explicitly).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Directories never walked into (caches, VCS litter).
_SKIP_DIRS = {"__pycache__", ".git", ".mypy_cache", ".ruff_cache"}


class Module:
    """One parsed source module of the linted tree."""

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path
        self.rel_path = path.relative_to(root).as_posix()
        stem = self.rel_path[:-3]  # strip .py
        if stem.endswith("__init__"):
            stem = stem[: -len("__init__")].rstrip("/")
        self.dotted = stem.replace("/", ".")
        #: Is this module a package ``__init__``?  Relative imports
        #: resolve against the package itself then, not its parent.
        self.is_package = path.name == "__init__.py"
        self.source = path.read_text()
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(path))

    def line(self, number: int) -> str:
        """The 1-based physical source line (empty when out of range)."""
        if 1 <= number <= len(self.lines):
            return self.lines[number - 1]
        return ""

    def __repr__(self) -> str:
        return f"Module({self.rel_path!r})"


class Project:
    """Every parseable module under one root, indexed for the checkers."""

    def __init__(self, root: Path, modules: List[Module],
                 broken: List[Tuple[Path, SyntaxError]]) -> None:
        self.root = root
        self.modules = modules
        #: Files that failed to parse, with their syntax errors — the
        #: driver reports these as findings instead of crashing.
        self.broken = broken
        self.by_dotted: Dict[str, Module] = {
            module.dotted: module for module in modules}

    @classmethod
    def load(cls, root: Path) -> "Project":
        root = Path(root)
        modules: List[Module] = []
        broken: List[Tuple[Path, SyntaxError]] = []
        if root.is_file():
            # Single-file root: model it as a one-module tree.
            try:
                modules.append(Module(root.parent, root))
            except SyntaxError as exc:
                broken.append((root, exc))
            return cls(root.parent, modules, broken)
        for path in sorted(root.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in path.parts):
                continue
            try:
                modules.append(Module(root, path))
            except SyntaxError as exc:
                broken.append((path, exc))
        return cls(root, modules, broken)

    # -- import resolution --------------------------------------------------

    def resolve_relative(self, module: Module, level: int,
                         target: Optional[str]) -> Optional[str]:
        """The dotted name ``from <level dots><target> import ...``
        refers to, from ``module``'s position — ``None`` if it escapes
        the linted tree."""
        if module.is_package:
            package_parts = module.dotted.split(".") if module.dotted \
                else []
        else:
            package_parts = module.dotted.split(".")[:-1]
        up = level - 1
        if up > len(package_parts):
            return None
        base = package_parts[: len(package_parts) - up]
        if target:
            base = base + target.split(".")
        return ".".join(base)

    def resolve_name(self, module: Module, name: str
                     ) -> Optional[Tuple[Module, ast.ClassDef]]:
        """Resolve ``name`` (used in ``module``) to a class definition.

        Looks for a local ``class name`` first, then follows
        ``from ... import name`` statements found anywhere in the
        module.  Only project-internal (relative) imports resolve;
        absolute imports of third-party modules return ``None``.
        """
        local = find_class(module.tree, name)
        if local is not None:
            return module, local
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                if bound != name:
                    continue
                if node.level == 0:
                    # Absolute import: only resolvable when it
                    # names a module of this tree by dotted path.
                    target = self.by_dotted.get(node.module or "")
                else:
                    dotted = self.resolve_relative(
                        module, node.level, node.module)
                    target = self.by_dotted.get(dotted) \
                        if dotted is not None else None
                if target is None:
                    continue
                found = find_class(target.tree, alias.name)
                if found is not None:
                    return target, found
                # Re-exported (e.g. through an __init__): follow
                # one more hop.
                hop = self.resolve_name(target, alias.name)
                if hop is not None:
                    return hop
        return None

    # -- method resolution --------------------------------------------------

    def methods(self, module: Module, cls: ast.ClassDef,
                depth: int = 6) -> Dict[str, ast.FunctionDef]:
        """Method-resolution view of ``cls``: name -> defining
        ``FunctionDef``, subclass definitions shadowing base ones,
        bases resolved through the project (unresolvable bases are
        simply skipped — absence is then reported by the caller)."""
        table: Dict[str, ast.FunctionDef] = {}
        seen = set()

        def visit(mod: Module, node: ast.ClassDef, remaining: int) -> None:
            key = (mod.dotted, node.name)
            if key in seen or remaining < 0:
                return
            seen.add(key)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    table.setdefault(item.name, item)
            for base in node.bases:
                base_name = _base_name(base)
                if base_name is None:
                    continue
                resolved = self.resolve_name(mod, base_name)
                if resolved is not None:
                    visit(resolved[0], resolved[1], remaining - 1)

        visit(module, cls, depth)
        return table


def find_class(tree: ast.AST, name: str) -> Optional[ast.ClassDef]:
    """A top-level (or nested-at-any-depth) class definition by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _base_name(base: ast.expr) -> Optional[str]:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None
