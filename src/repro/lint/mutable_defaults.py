"""Mutable-default checker (RPL201/RPL202).

The exact bug class PR 4 fixed by hand across the repo: a function
default of ``[]``/``{}``/``set()``/``np.zeros(...)`` is evaluated once
and shared by every call, and a dataclass field defaulting to a mutable
object is shared by every instance.  Python itself only rejects the
narrowest dataclass case (literal ``list``/``dict``/``set`` defaults,
at class-creation time); ``field(default=[])``, ndarray defaults, and
plain function defaults all slip through — this checker rejects them
all, statically, anywhere under the linted tree.

* RPL201 — a function/lambda parameter default that is a mutable
  container literal, a comprehension, or a call to a known mutable
  constructor (``list``/``dict``/``set``/``bytearray``/
  ``collections.*``/``np.zeros``-family);
* RPL202 — a dataclass field whose default (direct or via
  ``field(default=...)``) is one of the same; the fix is
  ``field(default_factory=...)``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .findings import Finding
from .project import Module, Project

#: Bare-name constructors returning a fresh mutable container.
_MUTABLE_BUILTINS = {"list", "dict", "set", "bytearray"}

#: ``module.attr`` (or imported-name) constructors of mutable objects.
_MUTABLE_FACTORY_NAMES = {
    "defaultdict", "OrderedDict", "Counter", "deque", "ChainMap",
}

#: numpy array constructors (``np.X``/``numpy.X`` or imported bare).
_NDARRAY_FACTORIES = {
    "zeros", "ones", "empty", "full", "array", "asarray", "arange",
    "zeros_like", "ones_like", "empty_like", "full_like",
}

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp)


def describe_mutable(node: ast.expr) -> Optional[str]:
    """A short label when ``node`` evaluates to a shared mutable
    object, else ``None``."""
    if isinstance(node, _MUTABLE_LITERALS):
        return {ast.List: "list literal", ast.Dict: "dict literal",
                ast.Set: "set literal"}.get(
                    type(node), "comprehension")
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        name = func.id
        if name in _MUTABLE_BUILTINS or name in _MUTABLE_FACTORY_NAMES:
            return f"{name}()"
        if name in _NDARRAY_FACTORIES:
            return f"{name}() (ndarray)"
        return None
    if isinstance(func, ast.Attribute):
        attr = func.attr
        base = func.value
        base_name = base.id if isinstance(base, ast.Name) else None
        if attr in _MUTABLE_FACTORY_NAMES:
            return f"{base_name or '...'}.{attr}()"
        if attr in _NDARRAY_FACTORIES and base_name in ("np", "numpy"):
            return f"{base_name}.{attr}() (ndarray)"
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) \
                and target.attr == "dataclass":
            return True
    return False


def _field_default(value: ast.expr) -> Optional[ast.expr]:
    """The effective default expression of a dataclass field value:
    the value itself, or ``field(default=...)``'s argument.  ``None``
    for ``field(default_factory=...)`` — that is the sanctioned form."""
    if isinstance(value, ast.Call):
        target = value.func
        name = target.id if isinstance(target, ast.Name) else (
            target.attr if isinstance(target, ast.Attribute) else None)
        if name == "field":
            for keyword in value.keywords:
                if keyword.arg == "default":
                    return keyword.value
            return None
    return value


class MutableDefaultChecker:
    """RPL201/RPL202 over every module of the tree."""

    codes = ("RPL201", "RPL202")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            yield from self._check_module(module)

    def _check_module(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    yield from self._check_field(module, node, item)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                yield from self._check_function(module, node)

    def _check_function(self, module: Module, fn) -> Iterator[Finding]:
        name = getattr(fn, "name", "<lambda>")
        defaults = list(fn.args.defaults) + [
            default for default in fn.args.kw_defaults
            if default is not None]
        for default in defaults:
            label = describe_mutable(default)
            if label is not None:
                yield Finding(
                    path=str(module.path), line=default.lineno,
                    code="RPL201",
                    message=f"{name}() parameter defaults to {label}; "
                            "the default is evaluated once and shared "
                            "by every call — default to None and "
                            "construct per call")

    def _check_field(self, module: Module, cls: ast.ClassDef,
                     item: ast.stmt) -> Iterator[Finding]:
        if not isinstance(item, (ast.AnnAssign, ast.Assign)):
            return
        value = item.value
        if value is None:
            return
        default = _field_default(value)
        if default is None:
            return
        label = describe_mutable(default)
        if label is not None:
            yield Finding(
                path=str(module.path), line=item.lineno, code="RPL202",
                message=f"dataclass {cls.name} field defaults to "
                        f"{label}; the default is shared by every "
                        "instance — use field(default_factory=...)")
