"""Timing checker (RPL601): time.time() outside tests."""

from repro.lint import run_lint


def _lint(path):
    return run_lint([path]).findings


class TestChecker:
    def test_wall_clock_timing_flagged(self, fixtures):
        findings = _lint(fixtures / "timing_bad.py")
        assert [f.code for f in findings] == ["RPL601"] * 3
        assert [f.line for f in findings] == [10, 11, 12]

    def test_monotonic_clocks_fine(self, fixtures):
        findings = _lint(fixtures / "timing_bad.py")
        flagged = {f.line for f in findings}
        assert not flagged & {16, 17, 18}

    def test_suppression_honoured(self, fixtures):
        report = run_lint([fixtures / "timing_bad.py"])
        assert all(f.line != 22 for f in report.findings)
        assert any(f.code == "RPL601" and f.line == 22
                   for f in report.suppressed)

    def test_unrelated_time_attribute_not_flagged(self, tmp_path):
        target = tmp_path / "other.py"
        target.write_text(
            "import datetime\n"
            "stamp = datetime.datetime.now().time()\n")
        assert _lint(target) == []

    def test_tests_exempt(self, tmp_path):
        tree = tmp_path / "pkg" / "tests"
        tree.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tree / "__init__.py").write_text("")
        (tree / "helper.py").write_text(
            "import time\nstamp = time.time()\n")
        (tmp_path / "pkg" / "test_mod.py").write_text(
            "import time\nstamp = time.time()\n")
        (tmp_path / "pkg" / "conftest.py").write_text(
            "import time\nstamp = time.time()\n")
        assert _lint(tmp_path / "pkg") == []

    def test_library_module_in_package_flagged(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "clocked.py").write_text(
            "import time\nstamp = time.time()\n")
        findings = _lint(tmp_path / "pkg")
        assert [f.code for f in findings] == ["RPL601"]

    def test_library_clean_at_head(self, head_report):
        findings = [f for f in head_report.findings
                    if f.code == "RPL601"]
        assert findings == []
