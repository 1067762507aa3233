"""Obs-contract checker (RPL901/RPL902/RPL903).

The metrics registry accepts any string as a metric name, which means a
typo at one record site ("executor.chunk" for "executor.chunks")
silently splits a series, and a renamed metric silently orphans every
renderer and README row that still uses the old name.  The catalog in
:mod:`repro.obs.catalog` declares every legal name; this checker holds
the whole tree to it — reading the catalog module's **AST literals**
(never importing it), so fixture trees with their own ``obs/catalog.py``
are checkable without being executable.

* RPL901 — a *literal* metric name at a ``counter``/``gauge``/
  ``histogram`` call site that is not declared in the catalog (or is
  declared with a different kind).
* RPL902 — a *dynamic* (f-string) metric name whose template — the
  f-string with every interpolation replaced by ``*`` — is not a
  declared family (or has the wrong kind).  ``f"engine.{name}.runs"``
  must reduce to a registered ``engine.*.runs`` row.
* RPL903 — catalog drift: a metric-shaped string or f-string in the
  obs *render* modules that resolves to no catalog entry (renderers
  read names the recorders never write), or a README metric-catalog
  table out of sync with the catalog — missing rows, unknown rows, or
  kind mismatches.  README rows spell families with ``<placeholder>``
  segments (``engine.<name>.runs``), which the checker normalizes to
  the catalog's ``*`` form.  README findings anchor on the catalog
  module, the declaration the README must mirror.

Projects without an ``obs/catalog.py`` module (most lint fixtures) are
exempt from all three codes.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .findings import Finding
from .project import Module, Project

#: Registry record methods, by declared kind.
_RECORDERS = {"counter": "counter", "gauge": "gauge",
              "histogram": "histogram"}

#: A whole string that could plausibly be a metric name: dotted
#: lower_snake segments (``*`` allowed so templates match too).
_METRIC_SHAPED = re.compile(r"^[a-z_][a-z0-9_*]*(\.[a-z0-9_*]+)+$")

#: README markers bracketing the machine-checked metric table.
_README_START = "<!-- lint:metric-catalog -->"
_README_END = "<!-- /lint:metric-catalog -->"


class Catalog:
    """The declared names, parsed from a catalog module's literals."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.static: Dict[str, str] = {}        # name -> kind
        self.families: List[Tuple[str, str]] = []  # (template, kind)
        self.decl_line = 1
        for stmt in module.tree.body:
            target, value = self._assignment(stmt)
            if target == "STATIC_METRICS":
                self.decl_line = stmt.lineno
                for name, spec in self._literal(value, {}).items():
                    self.static[name] = spec[0]
            elif target == "METRIC_FAMILIES":
                for row in self._literal(value, ()):
                    self.families.append((row[0], row[1]))
        self._family_regexes = [
            (template, kind, _template_regex(template))
            for template, kind in self.families]

    @staticmethod
    def _assignment(stmt: ast.stmt) -> Tuple[Optional[str], ast.expr]:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            return stmt.targets[0].id, stmt.value
        if isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.value is not None:
            return stmt.target.id, stmt.value
        return None, ast.Constant(value=None)

    @staticmethod
    def _literal(node: ast.expr, default):
        try:
            return ast.literal_eval(node)
        except (ValueError, SyntaxError):
            return default

    def kind_of(self, name: str) -> Optional[str]:
        """Kind for a concrete name (static first, then families)."""
        if name in self.static:
            return self.static[name]
        for _, kind, regex in self._family_regexes:
            if regex.match(name):
                return kind
        return None

    def family_kind(self, template: str) -> Optional[str]:
        for declared, kind in self.families:
            if declared == template:
                return kind
        return None

    def entries(self) -> Dict[str, str]:
        combined = dict(self.static)
        combined.update(self.families)
        return combined

    def covers_prefix(self, prefix: str) -> bool:
        return any(entry.startswith(prefix) for entry in self.entries())

    def covers_suffix(self, suffix: str) -> bool:
        return any(entry.endswith(suffix) for entry in self.entries())


def _template_regex(template: str) -> "re.Pattern[str]":
    pattern = "".join("[^.]+" if part == "*" else re.escape(part)
                      for part in re.split(r"(\*)", template))
    return re.compile(f"^{pattern}$")


def _fstring_template(node: ast.JoinedStr) -> Optional[str]:
    """The ``*``-placeholder template of an f-string, or ``None`` when
    a literal part is not a plain string."""
    parts: List[str] = []
    for value in node.values:
        if isinstance(value, ast.Constant):
            if not isinstance(value.value, str):
                return None
            parts.append(value.value)
        elif isinstance(value, ast.FormattedValue):
            parts.append("*")
        else:
            return None
    return "".join(parts)


def _drift_candidates(tree: ast.AST) -> Iterator[ast.AST]:
    """String constants and whole f-strings, without descending into
    an f-string's parts (its ``".2f"`` format specs and literal
    fragments are not candidate metric names on their own)."""
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.JoinedStr):
            yield node
            continue
        if isinstance(node, ast.Constant):
            yield node
            continue
        stack.extend(ast.iter_child_nodes(node))


def find_catalog(project: Project) -> Optional[Catalog]:
    module = project.find_module("obs/catalog.py")
    if module is None:
        return None
    return Catalog(module)


def _find_readme(root: Path) -> Optional[Path]:
    probe = root
    for _ in range(4):
        candidate = probe / "README.md"
        if candidate.is_file():
            return candidate
        if probe.parent == probe:
            break
        probe = probe.parent
    return None


def _readme_rows(text: str) -> Optional[List[Tuple[int, str, str]]]:
    """(line, name-template, kind) rows of the marked README table,
    or ``None`` when the markers are absent."""
    lines = text.splitlines()
    try:
        start = next(i for i, line in enumerate(lines)
                     if _README_START in line)
        end = next(i for i, line in enumerate(lines)
                   if _README_END in line and i > start)
    except StopIteration:
        return None
    rows: List[Tuple[int, str, str]] = []
    for offset, line in enumerate(lines[start + 1:end]):
        cells = [cell.strip() for cell in line.strip().strip("|")
                 .split("|")]
        if len(cells) < 2:
            continue
        token = re.match(r"`([^`]+)`", cells[0])
        if token is None:
            continue
        name = re.sub(r"<[^<>]*>", "*", token.group(1))
        if not _METRIC_SHAPED.match(name):
            continue
        rows.append((start + 2 + offset, name, cells[1]))
    return rows


class ObsContractChecker:
    """RPL901-RPL903 over every module of the tree."""

    codes = ("RPL901", "RPL902", "RPL903")

    def check(self, project: Project) -> Iterator[Finding]:
        catalog = find_catalog(project)
        if catalog is None:
            return
        for module in project.modules:
            if module is catalog.module:
                yield from self._check_readme(project, catalog)
                continue
            yield from self._check_record_sites(catalog, module)
            if self._is_render_module(catalog, module):
                yield from self._check_render_drift(catalog, module)

    # -- RPL901/RPL902: record sites ----------------------------------

    def _check_record_sites(self, catalog: Catalog, module: Module
                            ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) \
                    or func.attr not in _RECORDERS:
                continue
            expected = _RECORDERS[func.attr]
            name_arg = node.args[0]
            if isinstance(name_arg, ast.Constant) \
                    and isinstance(name_arg.value, str):
                name = name_arg.value
                if not _METRIC_SHAPED.match(name):
                    continue  # not a metric-shaped string at all
                declared = catalog.kind_of(name)
                if declared is None:
                    yield Finding(
                        path=str(module.path), line=name_arg.lineno,
                        code="RPL901",
                        message=f"metric {name!r} is not declared in "
                                "the catalog (obs/catalog.py); add it "
                                "to STATIC_METRICS or fix the typo")
                elif declared != expected:
                    yield Finding(
                        path=str(module.path), line=name_arg.lineno,
                        code="RPL901",
                        message=f"metric {name!r} is declared as a "
                                f"{declared} but recorded via "
                                f".{func.attr}(); one of the two is "
                                "wrong")
            elif isinstance(name_arg, ast.JoinedStr):
                template = _fstring_template(name_arg)
                if template is None \
                        or not _METRIC_SHAPED.match(template):
                    continue
                declared = catalog.family_kind(template)
                if declared is None:
                    yield Finding(
                        path=str(module.path), line=name_arg.lineno,
                        code="RPL902",
                        message=f"dynamic metric name reduces to "
                                f"{template!r}, which is not a "
                                "declared family in METRIC_FAMILIES "
                                "(obs/catalog.py)")
                elif declared != expected:
                    yield Finding(
                        path=str(module.path), line=name_arg.lineno,
                        code="RPL902",
                        message=f"family {template!r} is declared as "
                                f"a {declared} but recorded via "
                                f".{func.attr}()")

    # -- RPL903: renderer drift ---------------------------------------

    @staticmethod
    def _is_render_module(catalog: Catalog, module: Module) -> bool:
        package = catalog.module.rel_path.rsplit("/", 1)[0]
        return module.rel_path.startswith(package + "/") \
            and module.rel_path != catalog.module.rel_path \
            and not module.is_package

    def _check_render_drift(self, catalog: Catalog, module: Module
                            ) -> Iterator[Finding]:
        for node in _drift_candidates(module.tree):
            name: Optional[str] = None
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                name = node.value
            elif isinstance(node, ast.JoinedStr):
                name = _fstring_template(node)
            if not name:
                continue
            if self._resolves(catalog, name):
                continue
            yield Finding(
                path=str(module.path), line=node.lineno,
                code="RPL903",
                message=f"{name!r} looks like a metric name but "
                        "matches no catalog entry: the renderer and "
                        "the recorders have drifted apart")

    @staticmethod
    def _resolves(catalog: Catalog, name: str) -> bool:
        """Does a renderer-side string agree with the catalog?  Full
        names must be declared; ``"serve."``-style prefixes and
        ``".chunk_s"``-style suffixes must match some entry; anything
        not metric-shaped is not checked."""
        if name.startswith("."):
            body = name[1:]
            if _METRIC_SHAPED.match(body) or body.replace("_", "") \
                    .isalnum():
                return catalog.covers_suffix(name)
            return True
        if name.endswith(".") and _METRIC_SHAPED.match(name[:-1] + ".x"):
            return catalog.covers_prefix(name)
        if not _METRIC_SHAPED.match(name):
            return True
        if catalog.kind_of(name) is not None:
            return True
        # A leading fragment of a family ("executor.w" against
        # "executor.w*.chunk_s") is prefix use, not drift.
        return any(entry.startswith(name)
                   for entry in catalog.entries())

    # -- RPL903: README drift -----------------------------------------

    def _check_readme(self, project: Project, catalog: Catalog
                      ) -> Iterator[Finding]:
        readme = _find_readme(project.root)
        if readme is None:
            return
        rows = _readme_rows(readme.read_text())
        if rows is None:
            return
        declared = catalog.entries()
        listed: Dict[str, str] = {}
        path = str(catalog.module.path)
        for line, name, kind in rows:
            listed[name] = kind
            if name not in declared:
                yield Finding(
                    path=path, line=catalog.decl_line, code="RPL903",
                    message=f"README metric table line {line} lists "
                            f"{name!r}, which the catalog does not "
                            "declare")
            elif declared[name] != kind:
                yield Finding(
                    path=path, line=catalog.decl_line, code="RPL903",
                    message=f"README metric table line {line} calls "
                            f"{name!r} a {kind}; the catalog declares "
                            f"a {declared[name]}")
        for name in declared:
            if name not in listed:
                yield Finding(
                    path=path, line=catalog.decl_line, code="RPL903",
                    message=f"catalog entry {name!r} is missing from "
                            "the README metric table (between the "
                            "lint:metric-catalog markers)")
