"""Determinism checker (RPL801/RPL802) against the fixture."""

from repro.lint import run_lint


def _findings(fixtures, code):
    return run_lint([fixtures / "ordering.py"], select=[code]).findings


def _marked(fixtures, code):
    source = (fixtures / "ordering.py").read_text().splitlines()
    return {i + 1 for i, line in enumerate(source)
            if f"# {code}" in line}


class TestSetIteration:
    def test_marked_lines_exactly(self, fixtures):
        assert {f.line for f in _findings(fixtures, "RPL801")} \
            == _marked(fixtures, "RPL801")

    def test_join_of_set_local_flagged(self, fixtures):
        findings = _findings(fixtures, "RPL801")
        assert any("join" in f.message for f in findings)

    def test_set_algebra_tracked(self, fixtures):
        """`set(a) - set(b)` assigned to a local stays a set."""
        findings = _findings(fixtures, "RPL801")
        assert any("comprehension" in f.message for f in findings)


class TestFilesystemOrder:
    def test_marked_lines_exactly(self, fixtures):
        assert {f.line for f in _findings(fixtures, "RPL802")} \
            == _marked(fixtures, "RPL802")

    def test_returned_listing_flagged(self, fixtures):
        findings = _findings(fixtures, "RPL802")
        assert any("returned" in f.message for f in findings)

    def test_real_repo_clean(self, head_report):
        """src/repro itself holds the determinism contract."""
        assert [f for f in head_report.findings
                if f.code.startswith("RPL8")] == []
