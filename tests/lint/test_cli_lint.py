"""The linter's command line (``python -m tools.lint.cli``): exit
codes, output modes, flags."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import tools.lint
from tools.lint.cli import build_parser, main

PACKAGE = Path(repro.__file__).parent
TOOL = Path(tools.lint.__file__).parent
ROOT = TOOL.parents[1]

_RUN_WITHOUT_REPRO = """
import sys
from tools.lint.cli import main
code = main(["--strict", sys.argv[1]])
assert not [name for name in sys.modules
            if name == "repro" or name.startswith("repro.")]
sys.exit(code)
"""


class TestParser:
    def test_strict_flag(self):
        args = build_parser().parse_args(["--strict", "src"])
        assert args.paths == ["src"]
        assert args.strict

    def test_defaults(self):
        args = build_parser().parse_args(["src"])
        assert not args.strict and not args.json

    def test_paths_required_unless_list_codes(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--strict"])
        assert exit_info.value.code == 2
        assert "no path to lint" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--fix", "--diff", "--cache", "--cache-path=x", "--jobs=2",
        "--baseline=x", "--update-baseline=x", "--format=json",
        "--no-external"])
    def test_removed_flags_are_unrecognized(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([flag, "src"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert flag in err


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["--strict", str(PACKAGE), str(TOOL)]) == 0

    def test_seeded_violation_exits_nonzero(self, capsys, fixtures):
        code = main(["--strict",
                     str(fixtures / "mutable_bad.py")])
        assert code == 2

    @pytest.mark.parametrize("fixture", [
        "concproj", "mutable_bad.py", "no_print_bad.py",
        "timing_bad.py"])
    def test_every_seeded_fixture_fails_strict(self, capsys, fixtures,
                                               fixture):
        assert main(["--strict", str(fixtures / fixture)]) == 2

    def test_without_strict_findings_exit_zero(self, capsys, fixtures):
        code = main([str(fixtures / "no_print_bad.py")])
        assert code == 0
        assert "RPL501" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, prefixes", [
        ("--select", "RLP2"),        # a typo
        ("--select", "RPL2,RPL3"),   # a family deleted long ago
        ("--ignore", "RPL8")])       # a family deleted since
    def test_prefix_matching_no_code_exits_two(self, capsys, flag,
                                               prefixes):
        """Not "clean": an unmatched prefix would run no checker."""
        assert main(["--strict", flag, prefixes,
                     str(PACKAGE)]) == 2
        captured = capsys.readouterr()
        assert "clean" not in captured.out
        unmatched = prefixes.split(",")[-1]
        assert f"no finding code matches {unmatched} " in captured.err

    @pytest.mark.parametrize("root", ["missing", "empty"])
    def test_root_without_python_exits_two(self, capsys, tmp_path, root):
        """Not "clean": a stale or mistyped root would check nothing."""
        target = tmp_path / root
        if root == "empty":
            target.mkdir()
        assert main(["--strict", str(PACKAGE), str(target)]) == 2
        captured = capsys.readouterr()
        assert "clean" not in captured.out
        assert f"no Python file under {target.resolve()} " \
            in captured.err


class TestStandalone:
    def test_runs_with_nothing_on_pythonpath(self):
        """From the repository root the tool runs without ``src`` on
        the path, and imports nothing from ``repro``."""
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-c", _RUN_WITHOUT_REPRO, "tools/lint"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("clean: 1 root(s)")


class TestOutput:
    def test_findings_format(self, capsys, fixtures):
        main([str(fixtures / "no_print_bad.py")])
        out = capsys.readouterr().out
        assert "no_print_bad.py:5  RPL501  " in out

    def test_json_mode(self, capsys, fixtures):
        main(["--json", str(fixtures / "no_print_bad.py")])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["code"] == "RPL501"

    def test_list_codes(self, capsys):
        assert main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        # four families: mutable defaults, print, timing, concurrency
        assert [line.split()[0] for line in out.splitlines()] == [
            "RPL1001", "RPL1002", "RPL1003", "RPL1004", "RPL1005",
            "RPL201", "RPL202", "RPL501", "RPL601"]
        assert "[--fix]" not in out

    def test_select_flag(self, capsys, fixtures):
        main(["--select", "RPL202",
              str(fixtures / "mutable_bad.py")])
        out = capsys.readouterr().out
        assert "RPL202" in out
        assert "RPL201" not in out
