"""Diff two suite records: ``python perf/compare.py A.json B.json``.

Either side may be a set of records of one commit, comma-separated
(``a1.json,a2.json,a3.json b1.json,b2.json,b3.json``): each metric then
reads the median over the set and its spread is the set's own, which is
what a host with slow spells needs.

One row per workload and metric, with the base value beside the delta
(every ratio with its base).  End-to-end rows are classified against the
bound the benchmark fixed for the metric:

* ``regressed`` / ``improved`` — B is worse / better than A by more than
  the bound *and* by more than the spread of either run;
* ``unresolved`` — neither, but a run's own spread (q3-q1 over median)
  is wider than the bound, so "no change" cannot be claimed;
* ``unchanged`` — within the bound, spread within the bound.

Per-layer rows carry no bound; they are listed when they moved, and
counts that must repeat exactly are marked ``changed``.  Exits 1 when
any end-to-end row regressed — absolute numbers, not ratios of ratios.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make perf/ importable
    sys.path[0:1] = [str(Path(__file__).resolve().parent.parent)]

from perf import catalog  # noqa: E402

IMPROVED, UNCHANGED, REGRESSED, UNRESOLVED = \
    "improved", "unchanged", "regressed", "unresolved"
#: Per-layer rows are listed once they move by this share of the base.
LAYER_NOISE = 0.05


def relative_change(base, value) -> float:
    if base == value:
        return 0.0
    if not base:
        return float("inf") if value > 0 else float("-inf")
    return (value - base) / abs(base)


def classify(metric, base: dict, new: dict):
    """``(verdict, worse, spread)``: ``worse`` is the share of the base
    by which B is worse than A (negative: better)."""
    change = relative_change(base["value"], new["value"])
    worse = change if metric.better == "lower" else -change
    spread = max(base.get("spread", 0.0), new.get("spread", 0.0))
    resolution = max(metric.bound, spread)
    if worse > resolution:
        verdict = REGRESSED
    elif worse < -resolution:
        verdict = IMPROVED
    elif spread > metric.bound:
        verdict = UNRESOLVED
    else:
        verdict = UNCHANGED
    return verdict, worse, spread


def merge_records(records: list) -> dict:
    """One record out of a set: per metric, the median over the runs
    with the quartiles of the set (``null`` if any run has none)."""
    if len(records) == 1:
        return records[0]
    merged = {"workloads": {}}
    for workload, first in records[0]["workloads"].items():
        entry = merged["workloads"][workload] = {}
        for section in ("end_to_end", "per_layer"):
            entry[section] = {}
            for name, metric in first[section].items():
                values = [record["workloads"][workload][section][name]
                          ["value"] for record in records]
                entry[section][name] = dict(metric, value=None) \
                    if None in values \
                    else dict(catalog.timing(values), unit=metric["unit"])
    return merged


def load_set(argument: str) -> dict:
    return merge_records([json.loads(Path(path).read_text())
                          for path in argument.split(",")])


def _number(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def compare_records(base: dict, new: dict):
    """Rows ``(workload, metric, verdict, text)`` for every workload the
    two records share."""
    declared = catalog.load()
    rows = []
    for workload, before in base["workloads"].items():
        after = new["workloads"].get(workload)
        if after is None:
            continue
        for metric in declared.end_to_end:
            old = before["end_to_end"][metric.name]
            now = after["end_to_end"][metric.name]
            verdict, worse, spread = classify(metric, old, now)
            rows.append((workload, metric.name, verdict,
                         f"{_number(old['value'])} -> "
                         f"{_number(now['value'])} {metric.unit}  "
                         f"worse by {worse:+.1%} of base "
                         f"(bound {metric.bound:.1%}, spread {spread:.1%})"))
        for metric in declared.per_layer:
            old = before["per_layer"][metric.name]
            now = after["per_layer"][metric.name]
            if old["value"] is None or now["value"] is None:
                if old["value"] is not now["value"]:
                    rows.append((workload, metric.name, "changed",
                                 f"{_number(old['value'])} -> "
                                 f"{_number(now['value'])} {metric.unit}"))
                continue
            change = relative_change(old["value"], now["value"])
            exact = metric.unit == "count"
            if (exact and change) or abs(change) > LAYER_NOISE:
                rows.append((workload, metric.name,
                             "changed" if exact else "moved",
                             f"{_number(old['value'])} -> "
                             f"{_number(now['value'])} {metric.unit}  "
                             f"{change:+.1%} of base"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    base, new = (load_set(argument) for argument in argv)
    rows = compare_records(base, new)
    for workload, name, verdict, text in rows:
        print(f"{workload:12s} {name:34s} {verdict:10s} {text}")
    verdicts = [verdict for _, _, verdict, _ in rows]
    print(f"end-to-end: {verdicts.count(REGRESSED)} regressed, "
          f"{verdicts.count(IMPROVED)} improved, "
          f"{verdicts.count(UNRESOLVED)} unresolved, "
          f"{verdicts.count(UNCHANGED)} unchanged")
    return 1 if REGRESSED in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
