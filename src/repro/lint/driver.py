"""The lint driver: load, check, suppress, report.

:func:`run_lint` is the one entry point the CLI and CI call, and it
has one path: load each root into a
:class:`~repro.lint.project.Project`, run each registered checker's
``check(project)``, drop findings covered by ``# lint: ignore[...]``
comments on their line, and return a :class:`LintReport` the caller
renders as text or JSON.

A checker runs only when at least one of its declared ``codes``
survives ``select``/``ignore`` — every finding it could produce would
be filtered otherwise — so ``--select RPL5`` pays for the print walk
and not for the call graph or the race detector.  The report is the
same as filtering a full run afterwards.

Files that fail to parse are reported as findings (code ``RPL000``)
rather than crashing the run — a lint gate that dies on the broken file
it should be flagging is useless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .concurrency import ConcurrencyChecker
from .determinism import DeterminismChecker
from .findings import Finding, suppressed_codes
from .fork_safety import ForkSafetyChecker
from .mutable_defaults import MutableDefaultChecker
from .no_print import NoPrintChecker
from .obs_contract import ObsContractChecker
from .project import Project
from .resource_lifetime import ResourceLifetimeChecker
from .timing import TimingChecker
from .wire_identity import WireIdentityChecker

#: Every checker, in report-stable order.
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
    #: Findings dropped by suppression comments (for ``--json`` and
    #: the suppression tests).
    suppressed: List[Finding] = field(default_factory=list)

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
                 "code": f.code, "message": f.message}
                for f in sorted(self.findings,
                                key=lambda f: f.sort_key())],
            # Always empty: kept so consumers of the JSON report see
            # the schema they always have.
            "notes": [],
            "suppressed": [
                {"path": f.path, "line": f.line, "code": f.code}
                for f in sorted(self.suppressed,
                                key=lambda f: f.sort_key())],
        }


def _selected(code: str, select: Optional[Sequence[str]],
              ignore: Optional[Sequence[str]]) -> bool:
    """Does ``code`` survive the ``select``/``ignore`` prefixes?"""
    if select and not code.startswith(tuple(select)):
        return False
    return not (ignore and code.startswith(tuple(ignore)))


def _excluded(path: str, exclude: Optional[Sequence[str]]) -> bool:
    """Is the path under an ``--exclude`` fragment?  Matches on posix
    path substrings (``tests/lint/fixtures`` drops the
    deliberately-dirty fixture tree from a ``tests/`` lint)."""
    if not exclude:
        return False
    posix = Path(path).as_posix()
    return any(fragment in posix for fragment in exclude)


def lint_paths(roots: Sequence[Path]) -> List[Project]:
    """Load each root (deduplicated, order-preserving) into a
    project."""
    unique = dict.fromkeys(Path(root).resolve() for root in roots)
    return [Project.load(root) for root in unique]


def run_lint(roots: Sequence[Path],
             select: Optional[Sequence[str]] = None,
             ignore: Optional[Sequence[str]] = None,
             exclude: Optional[Sequence[str]] = None) -> LintReport:
    """Run the checkers over ``roots`` and return the report.

    ``select``/``ignore`` are code *prefixes* (``RPL1`` covers the
    fork-safety and concurrency families), ignore winning over
    select; a checker none of whose codes survive them is not run.
    ``exclude`` drops findings whose path contains any given posix
    fragment (dirty fixture trees).
    """
    report = LintReport()
    for project in lint_paths(roots):
        findings = [
            Finding(path=str(path), line=exc.lineno or 1, code="RPL000",
                    message=f"file does not parse: {exc.msg}")
            for path, exc in project.broken]
        for checker in CHECKERS:
            if any(_selected(code, select, ignore)
                   for code in checker.codes):
                findings.extend(checker.check(project))
        by_path = {str(module.path): module
                   for module in project.modules}
        for finding in findings:
            if not _selected(finding.code, select, ignore) \
                    or _excluded(finding.path, exclude):
                continue
            module = by_path.get(finding.path)
            suppression = suppressed_codes(module.line(finding.line)) \
                if module is not None else None
            if suppression is not None and suppression.covers(finding):
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
    return report
