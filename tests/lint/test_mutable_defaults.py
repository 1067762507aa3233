"""Mutable-default checker (RPL201/RPL202) against the fixtures."""

from tools.lint import run_lint


def _lint(path):
    return run_lint([path]).findings


def codes_of(findings):
    return sorted(f.code for f in findings)


class TestBadFixture:
    def test_function_defaults(self, fixtures):
        findings = _lint(fixtures / "mutable_bad.py")
        rpl201 = [f for f in findings if f.code == "RPL201"]
        # collect([]), tally({} and set()), window(np.zeros)
        assert len(rpl201) == 4

    def test_dataclass_fields(self, fixtures):
        findings = _lint(fixtures / "mutable_bad.py")
        rpl202 = [f for f in findings if f.code == "RPL202"]
        # field(default=[]), raw {} literal, np.ones(8)
        assert len(rpl202) == 3

    def test_default_factory_not_flagged(self, fixtures):
        findings = _lint(fixtures / "mutable_bad.py")
        # the codes: field(default_factory=list) line carries nothing
        assert all(f.line != 29 for f in findings)

    def test_ndarray_default_labelled(self, fixtures):
        findings = _lint(fixtures / "mutable_bad.py")
        assert any("ndarray" in f.message for f in findings)


class TestGoodFixture:
    def test_clean(self, fixtures):
        assert codes_of(_lint(fixtures / "mutable_good.py")) == []


class TestRepoConventions:
    def test_lambda_defaults_covered(self, tmp_path):
        target = tmp_path / "lam.py"
        target.write_text("f = lambda x, acc=[]: acc\n")
        findings = _lint(target)
        assert codes_of(findings) == ["RPL201"]

    def test_none_default_fine(self, tmp_path):
        target = tmp_path / "ok.py"
        target.write_text("def f(x, acc=None):\n    return acc\n")
        assert _lint(target) == []
