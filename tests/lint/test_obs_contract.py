"""Obs-contract checker (RPL901-RPL903) against the obsproj fixture."""

from repro.lint import run_lint


def _report(fixtures, select=None):
    return run_lint([fixtures / "obsproj"], select=select)


class TestRecordSites:
    def test_typo_flagged(self, fixtures):
        findings = _report(fixtures, ["RPL901"]).findings
        assert any("pipeline.chunk'" in f.message for f in findings)

    def test_kind_mismatch_flagged(self, fixtures):
        findings = _report(fixtures, ["RPL901"]).findings
        assert any("declared as a histogram" in f.message
                   and "counter" in f.message for f in findings)

    def test_declared_names_clean(self, fixtures):
        source = (fixtures / "obsproj" / "app.py").read_text()
        lines = source.splitlines()
        for finding in _report(fixtures, ["RPL9"]).findings:
            if finding.path.endswith("app.py"):
                assert "RPL90" in lines[finding.line - 1]

    def test_unknown_family_flagged(self, fixtures):
        findings = _report(fixtures, ["RPL902"]).findings
        assert [f.message for f in findings] \
            and all("engine.*.fails" in f.message for f in findings)

    def test_dynamic_variable_names_skipped(self, fixtures):
        """A name computed at run time is out of static reach."""
        findings = _report(fixtures, ["RPL9"]).findings
        assert not any("compute_name" in f.message for f in findings)


class TestRendererDrift:
    def test_drifted_lookup_flagged(self, fixtures):
        findings = _report(fixtures, ["RPL903"]).findings
        assert any(f.path.endswith("render.py")
                   and "pipeline.total" in f.message for f in findings)

    def test_valid_lookups_clean(self, fixtures):
        findings = [f for f in _report(fixtures, ["RPL903"]).findings
                    if f.path.endswith("render.py")]
        assert len(findings) == 1


class TestReadmeDrift:
    def test_missing_entry_flagged(self, fixtures):
        findings = _report(fixtures, ["RPL903"]).findings
        assert any("run.elapsed_s" in f.message
                   and "missing" in f.message for f in findings)

    def test_unknown_row_flagged(self, fixtures):
        findings = _report(fixtures, ["RPL903"]).findings
        assert any("made.up_name" in f.message for f in findings)

    def test_kind_mismatch_flagged(self, fixtures):
        findings = _report(fixtures, ["RPL903"]).findings
        assert any("engine.*.runs" in f.message
                   and "histogram" in f.message for f in findings)

    def test_findings_anchor_on_catalog(self, fixtures):
        for finding in _report(fixtures, ["RPL903"]).findings:
            if "README" in finding.message \
                    or "missing from" in finding.message:
                assert finding.path.endswith("catalog.py")


class TestExemptions:
    def test_project_without_catalog_exempt(self, fixtures):
        """forkproj has no obs/catalog.py: no RPL9xx at all."""
        report = run_lint([fixtures / "forkproj"], select=["RPL9"])
        assert report.findings == []

    def test_real_repo_record_sites_clean(self, head_report):
        assert [f for f in head_report.findings
                if f.code.startswith("RPL9")] == []
