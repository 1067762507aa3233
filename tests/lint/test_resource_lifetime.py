"""Resource-lifetime checker (RPL701/RPL702) against the fixture."""

from repro.lint import run_lint


def _findings(fixtures, code):
    report = run_lint([fixtures / "lifetimes.py"], select=[code])
    return report.findings


class TestHandleLeaks:
    def test_returned_handle_flagged(self, fixtures):
        findings = _findings(fixtures, "RPL701")
        assert any("leak_returned" in f.message for f in findings)

    def test_container_stash_flagged(self, fixtures):
        findings = _findings(fixtures, "RPL701")
        assert any("leak_stashed" in f.message
                   and "container" in f.message for f in findings)

    def test_attr_stash_without_class_close_flagged(self, fixtures):
        findings = _findings(fixtures, "RPL701")
        assert any("stashed on an attribute" in f.message
                   for f in findings)

    def test_class_owned_handle_not_flagged(self, fixtures):
        """Owner closes self.handle in close(): ownership transfer."""
        findings = _findings(fixtures, "RPL701")
        source = (fixtures / "lifetimes.py").read_text().splitlines()
        start = next(i + 1 for i, line in enumerate(source)
                     if "class Owner" in line)
        assert not any(start < f.line < start + 10 for f in findings)

    def test_disciplined_functions_clean(self, fixtures):
        findings = _findings(fixtures, "RPL701")
        source = (fixtures / "lifetimes.py").read_text().splitlines()
        for finding in findings:
            assert "RPL701" in source[finding.line - 1], \
                f"unexpected RPL701 at line {finding.line}"

    def test_expected_count(self, fixtures):
        source = (fixtures / "lifetimes.py").read_text().splitlines()
        expected = sum("# RPL701" in line for line in source)
        assert len(_findings(fixtures, "RPL701")) == expected


class TestEscapingViews:
    def test_return_inside_with_flagged(self, fixtures):
        findings = _findings(fixtures, "RPL702")
        assert any("returned" in f.message for f in findings)

    def test_yield_inside_with_flagged(self, fixtures):
        findings = _findings(fixtures, "RPL702")
        assert any("yielded" in f.message for f in findings)

    def test_marked_lines_exactly(self, fixtures):
        source = (fixtures / "lifetimes.py").read_text().splitlines()
        expected = {i + 1 for i, line in enumerate(source)
                    if "# RPL702" in line}
        assert {f.line for f in _findings(fixtures, "RPL702")} \
            == expected
