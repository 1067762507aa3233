"""Run every gated benchmark and write a per-PR ``BENCH_<n>.json``.

The gated benches are the ones CI already enforces individually
(batch throughput, index load, serve latency,
per-engine pairs/sec); this harness executes them in one shot and
records status, wall time, and the tail of each report — plus the
host metadata (python version, platform, CPU count) and the total
harness wall time, so numbers from different machines are comparable
at a glance — making the perf trajectory a diffable artifact at the
repo root instead of something rediscovered from CI logs:

    cd benchmarks && python run_all.py --pr 7

Figure/table reproductions are deliberately excluded: they assert
paper agreement, not performance, and several take minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

#: The perf gates, in CI order.
GATED = (
    "bench_batch_throughput.py",
    "bench_index_load.py",
    "bench_serve.py",
    "bench_serve_concurrent.py",
    "bench_engines.py",
    "bench_lint_cache.py",
)

_BENCH_DIR = Path(__file__).parent
_REPO_ROOT = _BENCH_DIR.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.obs import host_metadata  # noqa: E402

#: How many closing report lines to keep per bench (the paper-vs-
#: measured tables all fit comfortably).
_TAIL_LINES = 30


def run_bench(name: str) -> dict:
    """Run one bench under pytest exactly as CI does; never raises."""
    argv = [sys.executable, "-m", "pytest", name, "-q", "-s"]
    env = dict(os.environ,
               PYTHONPATH=f"{_REPO_ROOT / 'src'}:.")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=_BENCH_DIR, capture_output=True, text=True,
            check=False, env=env)
        status = "passed" if proc.returncode == 0 else "failed"
        tail = proc.stdout.splitlines()[-_TAIL_LINES:]
    except OSError as exc:
        status, tail, proc = "error", [str(exc)], None
    return {
        "bench": name,
        "status": status,
        "seconds": round(time.perf_counter() - started, 2),
        "returncode": proc.returncode if proc is not None else -1,
        "report_tail": tail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run the gated benches, write BENCH_<pr>.json")
    parser.add_argument("--pr", type=int, default=10,
                        help="PR number stamped into the output name")
    parser.add_argument("--out", default=None,
                        help="output path (default: "
                             "<repo root>/BENCH_<pr>.json)")
    args = parser.parse_args(argv)
    out_path = Path(args.out) if args.out \
        else _REPO_ROOT / f"BENCH_{args.pr}.json"

    harness_started = time.perf_counter()
    results = []
    for name in GATED:
        print(f"== {name}", flush=True)
        result = run_bench(name)
        results.append(result)
        print(f"   {result['status']} in {result['seconds']}s",
              flush=True)

    payload = {
        "pr": args.pr,
        "python": sys.version.split()[0],
        "host": host_metadata(),
        "wall_seconds": round(time.perf_counter() - harness_started, 2),
        "benches": results,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0 if all(r["status"] == "passed" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
