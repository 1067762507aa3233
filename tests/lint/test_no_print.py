"""No-print checker (RPL501) and the diagnostics helper it points to."""

from repro.lint import run_lint
from repro.util.diagnostics import note, warn


def _lint(path):
    return run_lint([path]).findings


class TestChecker:
    def test_library_print_flagged(self, fixtures):
        findings = _lint(fixtures / "no_print_bad.py")
        assert [f.code for f in findings] == ["RPL501"]
        assert findings[0].line == 5

    def test_stderr_write_fine(self, fixtures):
        findings = _lint(fixtures / "no_print_bad.py")
        assert all(f.line != 11 for f in findings)

    def test_cli_exempt(self, tmp_path):
        target = tmp_path / "cli.py"
        target.write_text('print("usage: ...")\n')
        assert _lint(target) == []

    def test_library_clean_at_head(self, head_report):
        findings = [f for f in head_report.findings
                    if f.code == "RPL501"]
        assert findings == []


class TestDiagnostics:
    def test_note_goes_to_stderr(self, capsys):
        note("fork unavailable")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "note: fork unavailable\n"

    def test_warn_goes_to_stderr(self, capsys):
        warn("index stale")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "warning: index stale\n"
