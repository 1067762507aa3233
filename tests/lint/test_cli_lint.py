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
                     str(fixtures / "fork_unsafe.py")])
        assert code == 2

    @pytest.mark.parametrize("fixture", [
        "fork_unsafe.py", "mutable_bad.py", "rogue_sam.py",
        "no_print_bad.py"])
    def test_every_seeded_fixture_fails_strict(self, capsys, fixtures,
                                               fixture):
        assert main(["lint", "--strict", str(fixtures / fixture)]) == 2

    def test_without_strict_findings_exit_zero(self, capsys, fixtures):
        code = main(["lint", str(fixtures / "no_print_bad.py")])
        assert code == 0
        assert "RPL501" in capsys.readouterr().out


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
        for code in ("RPL101", "RPL202", "RPL401", "RPL501"):
            assert code in out
        assert "RPL30" not in out  # the registry-contract family is gone
        assert "[--fix]" not in out

    def test_select_flag(self, capsys, fixtures):
        main(["lint", "--select", "RPL103",
              str(fixtures / "fork_unsafe.py")])
        out = capsys.readouterr().out
        assert "RPL103" in out
        assert "RPL101" not in out
