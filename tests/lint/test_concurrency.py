"""Concurrency checker (RPL1001-RPL1005) against the concproj
fixtures, plus the HEAD-clean guarantee over the real sources."""

from pathlib import Path

from tools.lint import run_lint


def _lint(path, **kwargs):
    return run_lint([path], select=["RPL100"], **kwargs)


def codes_of(findings):
    return sorted({f.code for f in findings})


class TestConcprojFixture:
    def test_every_code_fires(self, fixtures):
        report = _lint(fixtures / "concproj")
        assert codes_of(report.findings) == [
            "RPL1001", "RPL1002", "RPL1003", "RPL1004", "RPL1005"]

    def test_unguarded_global_write(self, fixtures):
        report = _lint(fixtures / "concproj")
        hits = [f for f in report.findings if f.code == "RPL1001"]
        assert hits and all("LAST_OP" in f.message for f in hits)

    def test_rmw_on_shared_attr(self, fixtures):
        report = _lint(fixtures / "concproj")
        hits = [f for f in report.findings if f.code == "RPL1002"]
        assert any("Stats.requests" in f.message for f in hits)

    def test_lock_order_inversion_both_sites(self, fixtures):
        """The inversion is reported at both acquire sites, with the
        same canonical cross-module lock keys."""
        report = _lint(fixtures / "concproj")
        hits = [f for f in report.findings if f.code == "RPL1003"]
        assert len(hits) == 2
        for finding in hits:
            assert "state:LOCK_A" in finding.message
            assert "state:LOCK_B" in finding.message

    def test_blocking_call_under_lock(self, fixtures):
        report = _lint(fixtures / "concproj")
        hits = [f for f in report.findings if f.code == "RPL1004"]
        assert hits and "time.sleep" in hits[0].message

    def test_mutate_while_iterating(self, fixtures):
        report = _lint(fixtures / "concproj")
        hits = [f for f in report.findings if f.code == "RPL1005"]
        assert hits and "BACKLOG" in hits[0].message

    def test_suppression_honored(self, fixtures):
        """``self.noted += 1  # lint: ignore[RPL1002]`` is dropped
        from findings and surfaced in the suppressed list."""
        report = _lint(fixtures / "concproj")
        assert not any("Stats.noted" in f.message
                       for f in report.findings)
        assert any(f.code == "RPL1002"
                   and "Stats.noted" in f.message
                   for f in report.suppressed)

    def test_safe_module_clean(self, fixtures):
        """Lexically locked writes AND the interprocedural
        entry-lockset case (_bump_unlocked) stay quiet."""
        report = _lint(fixtures / "concproj")
        assert not any(Path(f.path).name == "safe.py"
                       for f in report.findings)


class TestNoThreadsNoFindings:
    def test_thread_free_project_is_exempt(self, tmp_path):
        """A project that never spawns a thread has no thread-shared
        state, whatever it writes."""
        module = tmp_path / "counts.py"
        module.write_text(
            "TOTAL = 0\n"
            "def bump():\n"
            "    global TOTAL\n"
            "    TOTAL += 1\n")
        assert _lint(tmp_path).findings == []


class TestRealSourcesClean:
    def test_src_repro_has_no_concurrency_findings(self, head_report):
        """The acceptance bar: the family gates strict in CI, so HEAD
        must be clean."""
        assert [f for f in head_report.findings
                if f.code.startswith("RPL100")] == []
