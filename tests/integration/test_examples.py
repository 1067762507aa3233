"""Examples leave the directory they are run from alone.

``examples/streaming_workers.py`` used to write its FASTA/FASTQ/SAM
files into the current directory, and five of them were committed at
the repo root; it now works under ``tempfile.mkdtemp`` like
``examples/multi_engine.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def test_streaming_workers_leaves_cwd_empty(tmp_path):
    cwd = tmp_path / "cwd"
    scratch = tmp_path / "tmp"
    cwd.mkdir()
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch),
               PYTHONPATH=os.pathsep.join(
                   [str(REPO / "src")]
                   + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run(
        [sys.executable, str(REPO / "examples" / "streaming_workers.py")],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "byte-identical: True" in done.stdout
    assert sorted(cwd.iterdir()) == []
    written = {path.name
               for path in sorted(scratch.glob("repro_stream_*/*"))}
    assert {"stream_solo.sam", "stream_pool.sam"} <= written
