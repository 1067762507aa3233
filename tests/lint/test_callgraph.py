"""The project call graph: call-site resolution and dataflow typing."""

import ast
from pathlib import Path

from tools.lint.callgraph import CallGraph
from tools.lint.project import Project


def _graph(root, files):
    for rel, text in files.items():
        target = Path(root) / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return CallGraph.build(Project.load(Path(root)))


def _resolve(graph, qualname, callee):
    """What the call ``callee(...)`` inside function ``qualname``
    resolves to, as ``(module dotted, qualname)`` or ``None``."""
    node = next(n for n in graph.nodes() if n.qualname == qualname)
    call = next(c for c in ast.walk(node.node)
                if isinstance(c, ast.Call) and ast.unparse(c.func) == callee)
    target = graph.resolve_callable(node, call.func)
    return None if target is None else (target.module.dotted,
                                        target.qualname)


_HELPERS = "def tally(items):\n    return len(items)\n"


class TestResolution:
    def test_cross_module_import_resolves(self, tmp_path):
        graph = _graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/helpers.py": _HELPERS,
            "pkg/worker.py": "from .helpers import tally\n\n"
                             "def run(items):\n    return tally(items)\n"})
        assert _resolve(graph, "run", "tally") == ("pkg.helpers", "tally")

    def test_reexport_chain_resolves(self, tmp_path):
        """``from .pkg import tally`` lands on the defining module, not
        on the ``__init__`` that re-exports it."""
        graph = _graph(tmp_path, {
            "pkg/__init__.py": "from .helpers import tally\n",
            "pkg/helpers.py": _HELPERS,
            "app.py": "from .pkg import tally\n\n"
                      "def run(items):\n    return tally(items)\n"})
        assert _resolve(graph, "run", "tally") == ("pkg.helpers", "tally")

    def test_unresolved_call_names_no_node(self, tmp_path):
        """No name-level fallback: a call leaving the tree resolves to
        nothing even when a same-named function exists."""
        graph = _graph(tmp_path, {
            "helpers.py": _HELPERS,
            "worker.py": "from outside import tally\n\n"
                         "def run(items):\n    return tally(items)\n"})
        assert _resolve(graph, "run", "tally") is None

    def test_method_via_local_instantiation(self, tmp_path):
        graph = _graph(tmp_path, {"mod.py": (
            "class Pipeline:\n"
            "    def __init__(self):\n        self.n = 0\n"
            "    def map_chunk(self, items):\n"
            "        return self._score(items)\n"
            "    def _score(self, items):\n        return items\n\n"
            "def run(items):\n"
            "    pipeline = Pipeline()\n"
            "    return pipeline.map_chunk(items)\n")})
        assert _resolve(graph, "run", "Pipeline") \
            == ("mod", "Pipeline.__init__")
        assert _resolve(graph, "run", "pipeline.map_chunk") \
            == ("mod", "Pipeline.map_chunk")
        assert _resolve(graph, "Pipeline.map_chunk", "self._score") \
            == ("mod", "Pipeline._score")
