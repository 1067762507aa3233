"""Wire-identity checker (RPL401/RPL402) against the rogue formatter
fixture and the real tree."""

from repro.lint import run_lint


def _lint(path):
    return run_lint([path]).findings


class TestRogueFormatter:
    def test_tab_join_flagged(self, fixtures):
        findings = _lint(fixtures / "rogue_sam.py")
        joins = [f for f in findings if f.code == "RPL401"]
        assert {f.line for f in joins} == {10, 15}

    def test_fstring_form_flagged(self, fixtures):
        findings = _lint(fixtures / "rogue_sam.py")
        assert any("f-string" in f.message for f in findings)

    def test_tag_and_header_markers(self, fixtures):
        findings = _lint(fixtures / "rogue_sam.py")
        markers = [f for f in findings if f.code == "RPL402"]
        assert {f.line for f in markers} == {20, 25}


class TestExemptions:
    def test_plain_tsv_not_flagged(self, tmp_path):
        """Tab-joined text without mapping-record fields is ordinary
        TSV (debug tables, VCF) — out of scope by design."""
        target = tmp_path / "table.py"
        target.write_text(
            'def row(chromosome, position):\n'
            '    return "\\t".join([chromosome, str(position)])\n')
        assert _lint(target) == []

    def test_single_record_attr_not_flagged(self, tmp_path):
        """One record attribute near a tab is not formatting — two or
        more is the signature."""
        target = tmp_path / "single.py"
        target.write_text(
            'def label(r):\n'
            '    return "\\t".join(["q", r.query_name])\n')
        assert _lint(target) == []

    def test_docstring_markers_exempt(self, tmp_path):
        target = tmp_path / "doc.py"
        target.write_text(
            '"""Scores are carried as AS:i: tags on each line."""\n'
            'X = 1\n')
        assert _lint(target) == []

    def test_renderer_modules_exempt(self, tmp_path):
        renderer = tmp_path / "genome"
        renderer.mkdir()
        target = renderer / "sam.py"
        target.write_text('HEADER = "@HD\\tVN:1.6"\n')
        assert _lint(tmp_path) == []


class TestRealTree:
    def test_only_renderers_format_records(self, head_report):
        """The single-renderer rule holds at HEAD: no module outside
        genome/{sam,paf,jsonl}.py assembles record text or markers."""
        assert [f for f in head_report.findings
                if f.code.startswith("RPL4")] == []
