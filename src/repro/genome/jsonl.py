"""JSONL (newline-delimited JSON) alignment output.

One JSON object per alignment record, one line per object — the format
downstream data pipelines (and the serving daemon's structured
consumers) ingest without a SAM parser.  Rendering is deterministic:
fixed key order, compact separators, no floats — so the same results
always serialize to the same bytes.  :func:`jsonl_lines` is the
renderer (a batch of results to its lines) and :data:`JSONL` its row
of the output table, behind file and wire output alike.

Unlike PAF, unmapped records ARE emitted (``"mapped": false`` with
placement fields nulled), so a JSONL file accounts for every read of a
run; result-level provenance (``engine``, ``stage``) rides along on
each record line.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from .results import OutputFormat, result_records

_dumps = json.JSONEncoder(separators=(",", ":")).encode


def jsonl_lines(results: Sequence, reference=None) -> List[str]:
    """A batch of mapping results (or bare records) as JSONL lines: one
    per record, mapped or not, in order."""
    lines = []
    for result in results:
        engine = getattr(result, "engine", "") or None
        stage = getattr(result, "stage", "") or None
        for record in result_records(result):
            mapped = bool(record.mapped)
            lines.append(_dumps({
                "name": record.query_name,
                "mapped": mapped,
                "chrom": record.chromosome if mapped else None,
                "pos": int(record.position) if mapped else None,
                "strand": record.strand if mapped else None,
                "mapq": int(record.mapq),
                "cigar": str(record.cigar) if mapped else None,
                "score": int(record.score),
                "method": record.method,
                "mate": int(record.mate),
                "proper_pair": bool(record.proper_pair),
                "engine": engine,
                "stage": stage,
            }))
    return lines


#: JSONL's row of the output table: no header.
JSONL = OutputFormat("jsonl", jsonl_lines)
