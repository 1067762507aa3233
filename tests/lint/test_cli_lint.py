"""The `repro lint` subcommand: exit codes, output modes, defaults."""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

PACKAGE = Path(repro.__file__).parent


class TestParser:
    def test_registered(self):
        args = build_parser().parse_args(["lint", "--strict"])
        assert args.command == "lint"
        assert args.strict

    def test_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == []
        assert not args.strict and not args.json

    @pytest.mark.parametrize("flag", [
        "--fix", "--diff", "--cache", "--cache-path=x", "--jobs=2",
        "--baseline=x", "--update-baseline=x", "--format=json",
        "--no-external"])
    def test_removed_flags_are_unrecognized(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", flag, "src"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert flag in err


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", "--strict", str(PACKAGE)]) == 0

    def test_seeded_violation_exits_nonzero(self, capsys, fixtures):
        code = main(["lint", "--strict",
                     str(fixtures / "mutable_bad.py")])
        assert code == 2

    @pytest.mark.parametrize("fixture", [
        "concproj", "mutable_bad.py", "no_print_bad.py",
        "timing_bad.py"])
    def test_every_seeded_fixture_fails_strict(self, capsys, fixtures,
                                               fixture):
        assert main(["lint", "--strict", str(fixtures / fixture)]) == 2

    def test_without_strict_findings_exit_zero(self, capsys, fixtures):
        code = main(["lint", str(fixtures / "no_print_bad.py")])
        assert code == 0
        assert "RPL501" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, prefixes", [
        ("--select", "RLP2"),        # a typo
        ("--select", "RPL2,RPL3"),   # a family deleted long ago
        ("--ignore", "RPL8")])       # a family deleted since
    def test_prefix_matching_no_code_exits_two(self, capsys, flag,
                                               prefixes):
        """Not "clean": an unmatched prefix would run no checker."""
        assert main(["lint", "--strict", flag, prefixes,
                     str(PACKAGE)]) == 2
        captured = capsys.readouterr()
        assert "clean" not in captured.out
        unmatched = prefixes.split(",")[-1]
        assert f"no finding code matches {unmatched} " in captured.err


class TestOutput:
    def test_findings_format(self, capsys, fixtures):
        main(["lint", str(fixtures / "no_print_bad.py")])
        out = capsys.readouterr().out
        assert "no_print_bad.py:5  RPL501  " in out

    def test_json_mode(self, capsys, fixtures):
        main(["lint", "--json", str(fixtures / "no_print_bad.py")])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["code"] == "RPL501"

    def test_list_codes(self, capsys):
        assert main(["lint", "--list-codes"]) == 0
        out = capsys.readouterr().out
        # four families: mutable defaults, print, timing, concurrency
        assert [line.split()[0] for line in out.splitlines()] == [
            "RPL1001", "RPL1002", "RPL1003", "RPL1004", "RPL1005",
            "RPL201", "RPL202", "RPL501", "RPL601"]
        assert "[--fix]" not in out

    def test_select_flag(self, capsys, fixtures):
        main(["lint", "--select", "RPL202",
              str(fixtures / "mutable_bad.py")])
        out = capsys.readouterr().out
        assert "RPL202" in out
        assert "RPL201" not in out
