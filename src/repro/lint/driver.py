"""The lint driver: load, check (through the cache), suppress, report.

:func:`run_lint` is the one entry point the CLI and CI call.  It loads
each root into a :class:`~repro.lint.project.Project`, runs every
registered checker — consulting the incremental cache when one is
given, so unchanged files cost a hash check instead of an AST walk —
drops findings covered by ``# lint: ignore[...]`` comments on their
line (external-tool findings included: a suppression is a suppression
regardless of who found the problem), and returns a
:class:`LintReport` the caller renders or serializes.

Checkers come in two scopes.  A ``scope = "local"`` checker exposes
``check_module(project, module)`` and is cached per file by content
hash (plus an optional ``environment(project)`` digest for checkers
whose verdict depends on out-of-file state).  Everything else is
global: cached per project, keyed by the content of its
``dependencies(project)`` closure — or of every module when it
declares none.

Files that fail to parse are reported as findings (code ``RPL000``)
rather than crashing the run — a lint gate that dies on the broken file
it should be flagging is useless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cache import LintCache, content_hash, global_key, local_key
from .concurrency import ConcurrencyChecker
from .determinism import DeterminismChecker
from .external import run_external
from .findings import Finding, suppressed_codes
from .fork_safety import ForkSafetyChecker
from .mutable_defaults import MutableDefaultChecker
from .no_print import NoPrintChecker
from .obs_contract import ObsContractChecker
from .project import Module, Project
from .resource_lifetime import ResourceLifetimeChecker
from .timing import TimingChecker
from .wire_identity import WireIdentityChecker

#: Every custom checker, in report-stable order.
CHECKERS = (
    ForkSafetyChecker(),
    MutableDefaultChecker(),
    WireIdentityChecker(),
    NoPrintChecker(),
    TimingChecker(),
    ResourceLifetimeChecker(),
    DeterminismChecker(),
    ObsContractChecker(),
    ConcurrencyChecker(),
)


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    #: Human-readable degradations (external tool missing, ...).
    notes: List[str] = field(default_factory=list)
    #: Findings dropped by suppression comments (for ``--json`` and
    #: the suppression tests).
    suppressed: List[Finding] = field(default_factory=list)
    #: ``(hits, misses)`` of the incremental cache, when one ran.
    cache_stats: Optional[tuple] = None

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self, relative_to: Optional[Path] = None) -> List[str]:
        """Report lines, paths relativized when possible."""
        lines: List[str] = []
        for finding in sorted(self.findings,
                              key=lambda f: f.sort_key()):
            shown = finding.path
            if relative_to is not None:
                try:
                    shown = str(
                        Path(finding.path).resolve().relative_to(
                            relative_to.resolve()))
                except ValueError:
                    pass
            lines.append(finding.render(path=shown))
        return lines

    def to_json(self) -> Dict:
        return {
            "findings": [
                {"path": f.path, "line": f.line,
                 "code": f.display_code, "message": f.message}
                for f in sorted(self.findings,
                                key=lambda f: f.sort_key())],
            "notes": list(self.notes),
            "suppressed": [
                {"path": f.path, "line": f.line,
                 "code": f.display_code}
                for f in sorted(self.suppressed,
                                key=lambda f: f.sort_key())],
        }


def _selected(finding: Finding, select: Optional[Sequence[str]],
              ignore: Optional[Sequence[str]]) -> bool:
    code = finding.display_code
    if select:
        if not any(code.startswith(prefix) for prefix in select):
            return False
    if ignore:
        if any(code.startswith(prefix) for prefix in ignore):
            return False
    return True


def _excluded(finding: Finding,
              exclude: Optional[Sequence[str]]) -> bool:
    """Is the finding's path under an ``--exclude`` fragment?  Matches
    on posix path substrings (``tests/lint/fixtures`` drops the
    deliberately-dirty fixture tree from a ``tests/`` lint)."""
    if not exclude:
        return False
    posix = Path(finding.path).as_posix()
    return any(fragment in posix for fragment in exclude)


def _apply_suppressions(by_path: Dict[str, Module],
                        findings: Iterable[Finding],
                        report: LintReport,
                        select: Optional[Sequence[str]],
                        ignore: Optional[Sequence[str]],
                        exclude: Optional[Sequence[str]] = None
                        ) -> None:
    for finding in findings:
        if not _selected(finding, select, ignore) \
                or _excluded(finding, exclude):
            continue
        module = by_path.get(finding.path)
        if module is None:
            try:
                module = by_path.get(
                    str(Path(finding.path).resolve()))
            except OSError:
                module = None
        if module is not None:
            suppression = suppressed_codes(module.line(finding.line))
            if suppression is not None and suppression.covers(finding):
                report.suppressed.append(finding)
                continue
        report.findings.append(finding)


def lint_paths(roots: Sequence[Path]) -> List[Project]:
    """Load each root (deduplicated, order-preserving) into a
    project."""
    unique: List[Path] = []
    seen = set()
    for root in roots:
        resolved = Path(root).resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(resolved)
    return [Project.load(root) for root in unique]


def _is_local(checker) -> bool:
    return getattr(checker, "scope", "global") == "local" \
        and hasattr(checker, "check_module")


def _run_checker(project: Project, checker,
                 cache: Optional[LintCache]) -> List[Finding]:
    """One checker over one project, through the cache when enabled."""
    if cache is None:
        return list(checker.check(project))
    if _is_local(checker):
        env = checker.environment(project) \
            if hasattr(checker, "environment") else ""
        env_digest = content_hash(env) if env else ""
        out: List[Finding] = []
        for module in project.modules:
            key = local_key(checker, module, env_digest)
            cached = cache.lookup_local(project.root, checker,
                                        module, key)
            if cached is None:
                cached = list(checker.check_module(project, module))
                cache.store_local(project.root, checker, module,
                                  key, cached)
            out.extend(cached)
        return out
    dependencies = checker.dependencies(project) \
        if hasattr(checker, "dependencies") else project.modules
    key = global_key(checker, dependencies)
    cached = cache.lookup_global(project.root, checker, key)
    if cached is None:
        cached = list(checker.check(project))
        cache.store_global(project.root, checker, key, cached)
    return cached


# -- process-pool execution of the local checkers ------------------------

#: The worker's lazily loaded project, keyed by root string.  Loaded
#: once per worker process by :func:`_pool_check`, reused for every
#: farmed (checker, module) task of that root.
_POOL_PROJECTS: Dict[str, Project] = {}


def _pool_check(task: tuple) -> List[Finding]:
    """One farmed unit: run ``CHECKERS[checker_index]`` over module
    ``module_index`` of the project rooted at ``root``."""
    root, checker_index, module_index = task
    project = _POOL_PROJECTS.get(root)
    if project is None:
        project = _POOL_PROJECTS[root] = Project.load(Path(root))
    checker = CHECKERS[checker_index]
    module = project.modules[module_index]
    return list(checker.check_module(project, module))


def _run_checkers_parallel(project: Project,
                           cache: Optional[LintCache],
                           jobs: int) -> List[List[Finding]]:
    """Per-``CHECKERS``-slot finding lists, with the local checkers'
    per-module units run in a process pool.

    Output is **byte-identical** to the serial path: results are
    reassembled in (checker, module) order before anything downstream
    sees them, so parallelism changes wall-clock only.  Global
    checkers (whole-project analyses) run in-process; the parent does
    every cache lookup and store, so the pool only sees misses.
    """
    from concurrent.futures import ProcessPoolExecutor

    slot_results: Dict[Tuple[int, int], List[Finding]] = {}
    farm: List[tuple] = []
    digests: Dict[int, str] = {}
    for checker_index, checker in enumerate(CHECKERS):
        if not _is_local(checker):
            continue
        env = checker.environment(project) \
            if hasattr(checker, "environment") else ""
        digests[checker_index] = content_hash(env) if env else ""
        for module_index, module in enumerate(project.modules):
            cached = None
            if cache is not None:
                key = local_key(checker, module,
                                digests[checker_index])
                cached = cache.lookup_local(project.root, checker,
                                            module, key)
            if cached is not None:
                slot_results[(checker_index, module_index)] = cached
            else:
                farm.append((str(project.root), checker_index,
                             module_index))
    if farm:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(farm) // (jobs * 4))
            for task, findings in zip(
                    farm, pool.map(_pool_check, farm,
                                   chunksize=chunk)):
                _, checker_index, module_index = task
                slot_results[(checker_index, module_index)] = findings
                if cache is not None:
                    checker = CHECKERS[checker_index]
                    module = project.modules[module_index]
                    key = local_key(checker, module,
                                    digests[checker_index])
                    cache.store_local(project.root, checker, module,
                                      key, findings)
    out: List[List[Finding]] = []
    for checker_index, checker in enumerate(CHECKERS):
        if _is_local(checker):
            merged: List[Finding] = []
            for module_index in range(len(project.modules)):
                merged.extend(
                    slot_results[(checker_index, module_index)])
            out.append(merged)
        else:
            out.append(_run_checker(project, checker, cache))
    return out


def run_lint(roots: Sequence[Path],
             select: Optional[Sequence[str]] = None,
             ignore: Optional[Sequence[str]] = None,
             external: bool = True,
             cache_path: Optional[Path] = None,
             exclude: Optional[Sequence[str]] = None,
             jobs: Optional[int] = None) -> LintReport:
    """Run every checker over ``roots`` and return the report.

    ``select``/``ignore`` are code *prefixes* (``RPL1`` covers the
    whole fork-safety family; ``ruff:`` covers all ruff findings),
    ignore winning over select.  ``exclude`` drops findings whose
    path contains any given posix fragment (dirty fixture trees).
    ``external=False`` skips ruff/mypy entirely (the unit tests and
    quick local runs).  ``cache_path`` enables the incremental cache
    at that location; ``None`` (the default, and what the unit tests
    use) runs everything fresh.  ``jobs`` > 1 runs the per-file
    checkers in a process pool of that size; the report is
    byte-identical to a serial run.
    """
    report = LintReport()
    cache = LintCache.load(cache_path) \
        if cache_path is not None else None
    projects = lint_paths(roots)
    by_path: Dict[str, Module] = {}
    for project in projects:
        for module in project.modules:
            by_path[str(module.path)] = module
    for project in projects:
        for path, exc in project.broken:
            finding = Finding(
                path=str(path), line=exc.lineno or 1, code="RPL000",
                message=f"file does not parse: {exc.msg}")
            if _selected(finding, select, ignore) \
                    and not _excluded(finding, exclude):
                report.findings.append(finding)
        if jobs is not None and jobs > 1:
            per_checker = _run_checkers_parallel(project, cache, jobs)
        else:
            per_checker = [_run_checker(project, checker, cache)
                           for checker in CHECKERS]
        for findings in per_checker:
            _apply_suppressions(by_path, findings, report, select,
                                ignore, exclude)
    if external:
        findings, notes = run_external(
            [project.root for project in projects])
        report.notes.extend(notes)
        _apply_suppressions(by_path, findings, report, select,
                            ignore, exclude)
    if cache is not None:
        cache.save()
        report.cache_stats = (cache.hits, cache.misses)
    return report
