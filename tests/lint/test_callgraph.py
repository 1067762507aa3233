"""The project call graph: resolution, dataflow typing, reachability."""

from pathlib import Path

from repro.lint import run_lint
from repro.lint.callgraph import CallGraph
from repro.lint.project import Project


def _graph(root):
    return CallGraph.build(Project.load(Path(root)))


class TestResolution:
    def test_cross_module_import_edge(self, fixtures):
        graph = _graph(fixtures / "forkproj")
        reached = {node.qualname
                   for node in graph.reachable_from_name("_stream_worker")}
        assert "tally" in reached and "audit" in reached

    def test_transitive_cross_module_edge(self, fixtures):
        """score is only reached via tally's comprehension."""
        graph = _graph(fixtures / "forkproj")
        reached = {node.qualname
                   for node in graph.reachable_from_name("_stream_worker")}
        assert "score" in reached

    def test_unresolved_calls_add_no_edges(self, fixtures):
        """No name-level fallback: a function never called on a
        resolved path stays unreachable even though it opens an fd."""
        graph = _graph(fixtures / "forkproj")
        reached = {node.qualname
                   for node in graph.reachable_from_name("_stream_worker")}
        assert "unrelated_debug_dump" not in reached

    def test_method_edge_via_local_instantiation(self, fixtures):
        graph = _graph(fixtures / "fork_unsafe.py")
        reached = {node.qualname
                   for node in graph.reachable_from_name("_stream_worker")}
        assert "PipelineLike._map_chunk" in reached
        assert "PipelineLike._score" in reached
        assert "PipelineLike.__init__" in reached


class TestForkStateDataflow:
    def test_fork_state_subscript_is_typed_by_stores(self, fixtures):
        """worker.py reads _FORK_STATE[token]; the only store types it
        as Pipeline (via the Executor parameter annotation)."""
        graph = _graph(fixtures / "forkproj")
        assert [(m.dotted, c.name)
                for m, c in graph._fork_state_types] \
            == [("worker", "Pipeline")]
        reached = {node.qualname
                   for node in graph.reachable_from_name("_stream_worker")}
        assert "Pipeline.map_chunk" in reached

    def test_real_repo_worker_reaches_pipeline(self):
        import repro
        graph = _graph(Path(repro.__file__).parent)
        reached = {(node.module.dotted, node.qualname)
                   for node in graph.reachable_from_name("_stream_worker")}
        assert ("core.pipeline", "GenPairPipeline._map_chunk") in reached
        # Cross-module: the batched seed probe is on the worker path.
        assert ("core.seedmap", "SeedMap.query_batch") in reached


class TestForkSafetyOnCallGraph:
    def test_cross_module_findings(self, fixtures):
        findings = run_lint([fixtures / "forkproj"]).findings
        by_code = {}
        for finding in findings:
            by_code.setdefault(finding.code, []).append(finding)
        assert "RPL102" in by_code and "RPL103" in by_code
        # Both land in helpers.py, one module away from the worker.
        assert all(f.path.endswith("helpers.py")
                   for f in by_code["RPL102"] + by_code["RPL103"])

    def test_unreachable_fd_open_not_flagged(self, fixtures):
        findings = run_lint([fixtures / "forkproj"]).findings
        assert not any("dump.bin" in (Path(f.path).read_text()
                                      .splitlines()[f.line - 1])
                       for f in findings)

    def test_deterministic_order(self, fixtures):
        first = [f.sort_key() for f in
                 run_lint([fixtures / "forkproj"]).findings]
        second = [f.sort_key() for f in
                  run_lint([fixtures / "forkproj"]).findings]
        assert first == second
