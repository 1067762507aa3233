"""Command-line front end of the project linter.

Run from the repository root; the tool needs nothing on ``PYTHONPATH``
and imports nothing from the ``repro`` package it checks::

    python -m tools.lint.cli --strict src/repro benchmarks/paper tools/lint
    python -m tools.lint.cli --select RPL5 src/repro
    python -m tools.lint.cli --list-codes

Paths are required unless ``--list-codes`` is given.  Exit status is 0
when the run is clean (or has findings without ``--strict``) and 2 on
any finding under ``--strict``, on a ``--select``/``--ignore`` prefix
that matches no code, and on a root that holds no Python file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import CODES, run_lint


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.list_codes:
        width = max(len(code) for code in CODES)
        for code, meaning in sorted(CODES.items()):
            print(f"{code:<{width}}  {meaning}")
        return 0
    roots = [Path(p) for p in args.paths]
    select = [s.strip() for s in args.select.split(",")
              if s.strip()] if args.select else None
    ignore = [s.strip() for s in args.ignore.split(",")
              if s.strip()] if args.ignore else None
    exclude = [s.strip() for s in (args.exclude or []) if s.strip()]

    try:
        report = run_lint(roots, select=select, ignore=ignore,
                          exclude=exclude)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for line in report.render(relative_to=Path.cwd()):
            print(line)
        if report.clean:
            print(f"clean: {len(roots)} root(s), "
                  f"{len(report.suppressed)} suppressed")
    if args.strict and not report.clean:
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint.cli",
        description="run the project static-analysis gate")
    parser.add_argument("paths", nargs="*",
                        help="directories/files to lint (required "
                             "unless --list-codes)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 on any finding (the CI gate)")
    parser.add_argument("--select", default=None,
                        help="comma-separated code prefixes to "
                             "report (e.g. RPL2,RPL5); checkers "
                             "with no selected code are not run")
    parser.add_argument("--ignore", default=None,
                        help="comma-separated code prefixes to "
                             "drop (wins over --select)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    parser.add_argument("--exclude", action="append", default=None,
                        metavar="FRAGMENT",
                        help="drop findings whose path contains this "
                             "fragment (repeatable; e.g. "
                             "tests/lint/fixtures)")
    parser.add_argument("--list-codes", action="store_true",
                        help="print the finding-code table and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.paths and not args.list_codes:
        parser.error("no path to lint (give one or more, or "
                     "--list-codes)")
    return _cmd_lint(args)


if __name__ == "__main__":
    sys.exit(main())
