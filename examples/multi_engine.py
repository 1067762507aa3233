"""One sample, three engines, three output formats — one facade.

Simulates a reference plus a paired-end sample and a long-read sample,
then maps everything through a single engine-polymorphic
:class:`repro.api.Mapper`:

* ``genpair``  — the paper's paired-end pipeline (the default engine);
* ``mm2``     — the minimizer seed-chain-align baseline (same pairs);
* ``longread`` — pseudo-pair Location Voting over the long reads,
  sharing the facade's SeedMap.

Every engine emits the same ``MappingResult`` record, so the same
``write``/``lines`` calls produce SAM, PAF, and JSONL for each — and
variants are called from the genpair SAM file through the SAM reader
``repro call`` uses (``repro.variants.sam_records``).

Run:  python examples/multi_engine.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.api import Mapper, MappingConfig
from repro.genome import ReadSimulator, generate_reference
from repro.util import format_table
from repro.variants import Pileup, call_variants, sam_records, write_vcf


def main() -> None:
    out_dir = Path(tempfile.mkdtemp(prefix="repro_engines_"))
    rng = np.random.default_rng(29)

    print("1. Reference + simulated samples ...")
    reference = generate_reference(rng, (120_000,))
    simulator = ReadSimulator(reference, seed=31)
    pairs = simulator.simulate_pairs(150)
    long_reads = simulator.simulate_long_reads(10, length_mean=3000,
                                               length_sd=500)

    print("2. One facade, three engines, three formats ...")
    rows = []
    with Mapper.from_reference(
            reference, config=MappingConfig(full_fallback=False)) as mapper:
        workloads = (("genpair", pairs, f"{len(pairs)} pairs"),
                     ("mm2", pairs, f"{len(pairs)} pairs"),
                     ("longread", long_reads,
                      f"{len(long_reads)} long reads"))
        for engine, items, label in workloads:
            results = mapper.map(items, engine=engine)
            mapped = sum(1 for result in results if result.mapped)
            counts = {}
            for fmt in ("sam", "paf", "jsonl"):
                path = out_dir / f"{engine}.{fmt}"
                counts[fmt] = mapper.write(results, path, format=fmt)
            rows.append((engine, label, f"{mapped}/{len(items)}",
                         counts["sam"], counts["paf"], counts["jsonl"]))
        print(format_table(
            ("engine", "workload", "mapped", "sam", "paf", "jsonl"),
            rows, title="Records written per engine x format"))

        print("\n3. Variant calling from the genpair SAM ...")
        pileup = Pileup(reference)
        records = pileup.add_records(
            sam_records(out_dir / "genpair.sam", reference))
        calls = write_vcf(out_dir / "calls.vcf", call_variants(pileup),
                          reference=reference)
        print(f"   {records} records piled up, {calls} variant calls")

        totals = mapper.engine_stats()
        print(f"\nper-engine cumulative counters: "
              f"genpair {totals['genpair']['pairs_total']} pairs | "
              f"mm2 {totals['mm2']['pairs_seen']} pairs | "
              f"longread {totals['longread']['reads_total']} reads")
    print(f"outputs under {out_dir}")


if __name__ == "__main__":
    main()
