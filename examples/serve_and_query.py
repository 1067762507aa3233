"""The serving workflow: a warm daemon, a thin client, zero rebuilds.

Walks the full ``repro.api`` story in one script:

1. simulate a dataset and build a persistent index;
2. the five-line ``Mapper`` hello-world (the whole Python API);
3. start a :class:`repro.api.MapServer` — the same daemon ``repro
   serve`` runs — holding the memory-mapped index warm;
4. query it with :class:`repro.api.Client`: an inline pair request
   and a server-side file-to-file mapping, with per-request stats;
5. show the served SAM is byte-identical to the offline run, then
   shut the daemon down gracefully.

Run:  python examples/serve_and_query.py
"""

import threading
import time

import numpy as np

from repro.api import Client, Mapper, MapServer
from repro.core import SeedMap
from repro.genome import (ErrorModel, ReadSimulator, decode,
                          generate_reference, write_fasta, write_fastq)
from repro.index import save_index

SOCKET = "serve_demo.sock"


def main() -> None:
    rng = np.random.default_rng(42)

    print("1. Simulating a 150kb reference and 300 read pairs ...")
    reference = generate_reference(rng, (100_000, 50_000))
    simulator = ReadSimulator(reference,
                              error_model=ErrorModel.giab_like(),
                              seed=7)
    pairs = simulator.simulate_pairs(300)
    write_fasta("serve_ref.fa", reference)
    write_fastq("serve_1.fq",
                ((p.read1.name, p.read1.codes) for p in pairs))
    write_fastq("serve_2.fq",
                ((p.read2.name, p.read2.codes) for p in pairs))
    save_index("serve.rpix", SeedMap.build(reference), reference)

    print("2. The 5-line Python API hello-world ...")
    with Mapper.from_index("serve.rpix") as mapper:
        results = mapper.map_file("serve_1.fq", "serve_2.fq")
        mapper.write(results, "offline.sam", format="sam")
        print(f"   mapped {mapper.last_stats.pairs_total} pairs, "
              f"{mapper.last_stats.light_aligned_pct:.1f}% "
              "DP-free -> offline.sam")

    print("3. Starting the daemon (what `repro serve` runs) ...")
    # workers=2: the worker pool forks once at startup and stays warm.
    server = MapServer(Mapper.from_index("serve.rpix", workers=2),
                       SOCKET)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    with Client(SOCKET) as client:
        reply = client.ping()
        print(f"   daemon alive: pid {reply['pid']}, index "
              f"{reply['index']}")

        print("4. Inline request: mapping 3 pairs over the socket ...")
        wire = [(decode(p.read1.codes), decode(p.read2.codes), p.name)
                for p in pairs[:3]]
        reply = client.map_pairs(wire)
        print(f"   {reply['pairs']} pairs -> {len(reply['lines'])} SAM "
              f"records in {reply['elapsed_s'] * 1e3:.1f} ms")
        for line in reply["lines"][:2]:
            print(f"     {line.split(chr(9))[0]} ... "
                  f"{line.split(chr(9))[3]}")

        print("5. File request: daemon maps the whole FASTQ pair ...")
        start = time.perf_counter()
        reply = client.map_file("serve_1.fq", "serve_2.fq",
                                "served.sam")
        elapsed = time.perf_counter() - start
        print(f"   {reply['pairs']} pairs -> served.sam in "
              f"{elapsed * 1e3:.0f} ms (no index load, no pool fork)")

        identical = (open("served.sam", "rb").read()
                     == open("offline.sam", "rb").read())
        print(f"   byte-identical to the offline run: {identical}")

        report = client.stats()
        print(f"   server totals: {report['server']['requests']} "
              f"requests, {report['server']['pairs_mapped']} pairs, "
              f"mapper cumulative "
              f"{report['mapper']['pairs_total']} pairs")

        client.shutdown()
    thread.join(timeout=10)
    print("6. Daemon shut down gracefully; socket removed.")


if __name__ == "__main__":
    main()
