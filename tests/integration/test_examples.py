"""Examples leave the directory they are run from alone.

Every example that starts no daemon runs here from an empty directory,
which must still be empty when it exits 0: outputs go under
``tempfile.mkdtemp`` (``TMPDIR`` points into the test's own directory).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: The examples that start no daemon.
EXAMPLES = ["long_read_mapping.py", "multi_engine.py",
            "persistent_index.py", "quickstart.py",
            "variant_calling_pipeline.py"]


def run_example(tmp_path, name):
    cwd = tmp_path / "cwd"
    scratch = tmp_path / "tmp"
    cwd.mkdir()
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch),
               PYTHONPATH=os.pathsep.join(
                   [str(REPO / "src")]
                   + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run(
        [sys.executable, str(REPO / "examples" / name)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert sorted(cwd.iterdir()) == []


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_leaves_cwd_empty(tmp_path, name):
    run_example(tmp_path, name)
