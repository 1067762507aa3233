"""Driver behavior: suppression, selection (and the checkers it
skips), broken files, and the repo-clean-at-HEAD gate."""

import os
from pathlib import Path

import pytest

from tools.lint import CHECKERS, CODES, run_lint
from tools.lint.concurrency import ConcurrencyChecker
from tools.lint.findings import Finding, suppressed_codes

_FIXTURE_NAMES = sorted(
    path.name for path in (Path(__file__).parent / "fixtures").iterdir())


def _write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text)
    return target


class TestSuppression:
    def test_bare_ignore_silences_everything(self, tmp_path):
        target = _write(tmp_path, "mod.py",
                        "def f(x, acc=[]):  # lint: ignore\n"
                        "    return acc\n")
        report = run_lint([target])
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_coded_ignore_matches(self, tmp_path):
        target = _write(tmp_path, "mod.py",
                        "def f(x, acc=[]):  # lint: ignore[RPL201]\n"
                        "    return acc\n")
        assert run_lint([target]).findings == []

    def test_wrong_code_does_not_silence(self, tmp_path):
        target = _write(tmp_path, "mod.py",
                        "def f(x, acc=[]):  # lint: ignore[RPL501]\n"
                        "    return acc\n")
        report = run_lint([target])
        assert [f.code for f in report.findings] == ["RPL201"]

    def test_suppressed_details_in_json(self, tmp_path):
        target = _write(tmp_path, "mod.py",
                        "def f(x, acc=[]):  # lint: ignore\n"
                        "    return acc\n")
        payload = run_lint([target]).to_json()
        assert payload["suppressed"] == [
            {"path": str(target), "line": 1, "code": "RPL201"}]

    def test_exclude_drops_path_fragment(self, tmp_path):
        nested = tmp_path / "vendored"
        nested.mkdir()
        _write(nested, "mod.py", "def f(x, acc=[]):\n    return acc\n")
        report = run_lint([tmp_path], exclude=["vendored"])
        assert report.findings == []

    def test_parser(self):
        assert suppressed_codes("x = 1") is None
        bare = suppressed_codes("x = 1  # lint: ignore")
        assert bare is not None and bare.codes == frozenset()
        coded = suppressed_codes("x = 1  # lint: ignore[RPL1002, RPL501]")
        assert coded.codes == {"RPL1002", "RPL501"}
        assert coded.covers(Finding("p", 1, "RPL1002", "m"))
        assert not coded.covers(Finding("p", 1, "RPL201", "m"))


class TestSelection:
    def test_select_prefix(self, fixtures):
        report = run_lint([fixtures / "mutable_bad.py"],
                          select=["RPL202"])
        assert {f.code for f in report.findings} == {"RPL202"}

    def test_ignore_wins_over_select(self, fixtures):
        report = run_lint([fixtures / "concproj"],
                          select=["RPL100"], ignore=["RPL1003", "RPL1004"])
        assert {f.code for f in report.findings} \
            == {"RPL1001", "RPL1002", "RPL1005"}

    @pytest.mark.parametrize("select, ignore, named", [
        (["RLP2"], None, "RLP2"),
        (["RPL2", "RPL9"], None, "RPL9"),
        (None, ["RPL7"], "RPL7"),
        (["RPL1"], ["RPL4", "RPL8"], "RPL4, RPL8")])
    def test_unmatched_prefix_raises_naming_it(self, tmp_path, select,
                                               ignore, named):
        """A prefix no code starts with would select nothing and let a
        dirty tree pass as clean; every such prefix is named."""
        target = _write(tmp_path, "mod.py",
                        "def f(x, acc=[]):\n    return acc\n")
        with pytest.raises(ValueError,
                           match=f"no finding code matches {named} "):
            run_lint([target], select=select, ignore=ignore)


#: One prefix per checker (``RPL20`` mutable defaults ... ``RPL100``
#: concurrency), derived from the codes each declares.
_FAMILIES = [os.path.commonprefix(checker.codes) for checker in CHECKERS]

#: ``(select, ignore)`` pairs: each family alone, prefixes spanning
#: two checkers, a two-prefix list, and ignore overriding select.
_SELECTIONS = [([family], None) for family in _FAMILIES] + [
    (["RPL1"], None), (["RPL0", "RPL5"], None),
    (["RPL5", "RPL100"], None), (["RPL1"], ["RPL100"]),
    (["RPL2", "RPL6"], ["RPL202"]), (None, ["RPL1", "RPL6"])]


def _filtered(findings, select, ignore):
    """The post-filter ``select``/``ignore`` always were."""
    return [f for f in findings
            if (not select or f.code.startswith(tuple(select)))
            and not (ignore and f.code.startswith(tuple(ignore)))]


def _assert_same_as_filtered_full_run(root):
    full = run_lint([root])
    for select, ignore in _SELECTIONS:
        report = run_lint([root], select=select, ignore=ignore)
        label = f"select={select} ignore={ignore}"
        assert report.findings == _filtered(
            full.findings, select, ignore), label
        assert report.suppressed == _filtered(
            full.suppressed, select, ignore), label


class TestSelectionSkipsCheckers:
    """A checker none of whose codes survive select/ignore is not
    run; the report must not be able to tell."""

    @pytest.mark.parametrize("fixture", _FIXTURE_NAMES)
    def test_same_as_filtering_the_full_run(self, fixtures, fixture):
        _assert_same_as_filtered_full_run(fixtures / fixture)

    def test_parse_failures_reported_when_admitted(self, tmp_path):
        _write(tmp_path, "broken.py", "def f(:\n")
        _write(tmp_path, "mod.py",
               "def f(x, acc=[]):\n    print(x)  # lint: ignore\n")
        _assert_same_as_filtered_full_run(tmp_path)
        for select, ignore, expected in [
                (["RPL5"], None, []),
                (["RPL0", "RPL5"], None, ["RPL000"]),
                (None, ["RPL2"], ["RPL000"]),
                (None, ["RPL0"], ["RPL201"])]:
            report = run_lint([tmp_path], select=select, ignore=ignore)
            assert [f.code for f in report.findings] == expected

    def test_unselected_checker_is_not_called(self, fixtures,
                                              monkeypatch):
        calls = []
        real = ConcurrencyChecker.check

        def spy(self, project):
            calls.append(project.root)
            return real(self, project)

        monkeypatch.setattr(ConcurrencyChecker, "check", spy)
        run_lint([fixtures / "concproj"], select=["RPL5"])
        run_lint([fixtures / "concproj"], ignore=["RPL100"])
        assert calls == []
        report = run_lint([fixtures / "concproj"], select=["RPL1003"])
        assert len(calls) == 1
        assert {f.code for f in report.findings} == {"RPL1003"}


class TestBrokenFiles:
    def test_syntax_error_is_a_finding(self, tmp_path):
        _write(tmp_path, "broken.py", "def f(:\n")
        report = run_lint([tmp_path])
        assert [f.code for f in report.findings] == ["RPL000"]
        assert "does not parse" in report.findings[0].message


class TestReport:
    def test_render_is_sorted_and_formatted(self, fixtures):
        report = run_lint([fixtures / "timing_bad.py"])
        lines = report.render()
        assert lines == sorted(lines)
        assert all("  RPL" in line for line in lines)

    def test_json_shape(self, fixtures):
        report = run_lint([fixtures / "no_print_bad.py"])
        payload = report.to_json()
        assert set(payload) == {"findings", "notes", "suppressed"}
        assert payload["findings"][0]["code"] == "RPL501"

    def test_code_table_complete(self):
        """Every code a checker can emit is documented."""
        emitted = {code for checker in CHECKERS
                   for code in checker.codes}
        assert emitted <= set(CODES)


class TestRepoCleanAtHead:
    def test_package_is_lint_clean(self, head_report):
        """The acceptance gate: zero findings over the real package.
        Any regression lands here before it lands in CI."""
        assert head_report.render() == []
