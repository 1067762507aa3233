"""Fork-safety checker (RPL101-RPL104) against the seeded fixtures."""

from repro.lint import run_lint


def _lint(path):
    # This suite is about the RPL1xx family; the deliberately leaky
    # fixtures also trip resource-lifetime codes, which have their own
    # tests.
    return run_lint([path], select=["RPL1"]).findings


def codes_of(findings):
    return sorted(f.code for f in findings)


class TestForkUnsafeFixture:
    def test_every_code_fires(self, fixtures):
        codes = set(codes_of(_lint(fixtures / "fork_unsafe.py")))
        assert codes == {"RPL101", "RPL102", "RPL103", "RPL104"}

    def test_reachable_lock_flagged(self, fixtures):
        findings = _lint(fixtures / "fork_unsafe.py")
        lock = [f for f in findings if f.code == "RPL101"
                and "_map_chunk" in f.message]
        assert lock and lock[0].line == 17

    def test_transitive_reachability(self, fixtures):
        """_score is only reached via _map_chunk — its RNG use must
        still be flagged."""
        findings = _lint(fixtures / "fork_unsafe.py")
        assert any(f.code == "RPL103" and "_score" in f.message
                   for f in findings)

    def test_stashed_fd_flagged(self, fixtures):
        findings = _lint(fixtures / "fork_unsafe.py")
        stashes = [f for f in findings if f.code == "RPL104"]
        assert {f.line for f in stashes} == {12, 13}


class TestForkSafeFixture:
    def test_clean(self, fixtures):
        """memmap sharing and per-call default_rng are sanctioned."""
        assert _lint(fixtures / "fork_safe.py") == []


class TestNonForkModulesExempt:
    def test_checker_only_activates_on_fork_modules(self, tmp_path):
        """threading.Lock in an ordinary module is fine — the server
        uses one legitimately; only _FORK_STATE modules are in scope."""
        ordinary = tmp_path / "server_like.py"
        ordinary.write_text(
            "import threading\n"
            "class Server:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n")
        findings = [f for f in _lint(ordinary)
                    if f.code.startswith("RPL1")]
        assert findings == []


class TestStashedClassInAnotherModule:
    def test_prefork_stash_follows_the_stored_type(self, tmp_path):
        """The pool module defines _FORK_STATE; the class it stores is
        defined next door (core/executor.py vs core/pipeline.py) and
        must still be scanned for fork-unsafe attributes."""
        project = tmp_path / "splitproj"
        project.mkdir()
        (project / "__init__.py").write_text("")
        (project / "flow.py").write_text(
            "import threading\n"
            "class Pipeline:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    def map_chunk(self, items):\n"
            "        return items\n")
        (project / "pool.py").write_text(
            "from .flow import Pipeline\n"
            "_FORK_STATE = {}\n"
            "class Executor:\n"
            "    def __init__(self, pipeline: Pipeline, token: int):\n"
            "        _FORK_STATE[token] = pipeline\n"
            "def _stream_worker(token, tasks, results):\n"
            "    pipeline = _FORK_STATE[token]\n"
            "    results.put(pipeline.map_chunk(tasks.get()))\n")
        stashes = [f for f in _lint(project) if f.code == "RPL104"]
        assert [(f.path.endswith("flow.py"), f.line)
                for f in stashes] == [(True, 4)]
