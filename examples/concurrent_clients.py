"""Many clients, one warm daemon: TCP, coalescing, backpressure.

The serving tier multiplexes every connection onto one warm
:class:`repro.api.Mapper` through a bounded scheduler queue.  This
script shows the concurrent story end to end:

1. start a daemon on **both** endpoints — a UNIX socket and a TCP
   port (what ``repro serve --tcp HOST:PORT`` does);
2. hammer it with 8 threaded clients over TCP and check every reply
   is byte-identical to a single-threaded reference (the scheduler
   coalesces compatible small requests into shared engine runs, and
   that must never change wire bytes);
3. read the live scheduler counters (``repro stats`` / ``repro top``
   show the same numbers);
4. demonstrate the structured failure modes: a per-request deadline
   (``timeout``) and the client's automatic busy-retry policy.

Run:  python examples/concurrent_clients.py
"""

import threading

import numpy as np

from repro.api import Client, Mapper, MapServer, ServeSettings
from repro.api.client import RequestTimeoutError
from repro.genome import (ErrorModel, ReadSimulator, decode,
                          generate_reference)
from repro.index import build_index, save_index

SOCKET = "concurrent_demo.sock"
CLIENTS = 8
REQUESTS_PER_CLIENT = 5


def main() -> None:
    rng = np.random.default_rng(42)

    print("1. Simulating reads and building an index ...")
    reference = generate_reference(rng, (100_000, 50_000))
    simulator = ReadSimulator(reference,
                              error_model=ErrorModel.giab_like(),
                              seed=7)
    pairs = simulator.simulate_pairs(40)
    save_index("concurrent.rpix", build_index(reference))
    wire = [(decode(p.read1.codes), decode(p.read2.codes), p.name)
            for p in pairs[:4]]

    print("2. Starting the daemon on a UNIX socket AND a TCP port ...")
    # coalesce_wait_s: hold a batch open a few ms so concurrent small
    # requests share one vectorized engine run (0 = opportunistic).
    server = MapServer(
        Mapper.from_index("concurrent.rpix"), SOCKET,
        tcp="127.0.0.1:0",  # port 0: let the OS pick a free port
        settings=ServeSettings(max_queue=32, coalesce_wait_s=0.005))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = f"127.0.0.1:{server.tcp_port}"
    print(f"   listening on {SOCKET} and tcp://{address}")

    print(f"3. Hammering over TCP: {CLIENTS} clients x "
          f"{REQUESTS_PER_CLIENT} requests ...")
    with Client(SOCKET) as client:
        reference_lines = client.map_pairs(wire)["lines"]
    mismatches = []

    def hammer(index: int) -> None:
        with Client(address) as client:
            for _ in range(REQUESTS_PER_CLIENT):
                reply = client.map_pairs(wire)
                if reply["lines"] != reference_lines:
                    mismatches.append(index)

    workers = [threading.Thread(target=hammer, args=(i,))
               for i in range(CLIENTS)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    total = CLIENTS * REQUESTS_PER_CLIENT
    print(f"   {total} concurrent replies, every one byte-identical "
          f"to the reference: {not mismatches}")

    print("4. Live scheduler counters (repro stats shows these) ...")
    with Client(address) as client:
        report = client.stats()
        scheduler = report["scheduler"]
        print(f"   engine runs: {scheduler['batches']}, requests "
              f"coalesced into shared runs: "
              f"{scheduler['coalesced_requests']} (largest batch "
              f"{scheduler['max_batch_requests']} requests)")
        print(f"   busy rejections: {scheduler['busy_rejected']}, "
              f"timeouts: {scheduler['timeouts']}, queue now: "
              f"{scheduler['queue_depth']}/{scheduler['max_queue']}")

        print("5. Structured failure modes ...")
        # A deadline the mapping cannot possibly meet: the daemon
        # answers a typed `timeout` error instead of hanging.
        try:
            client.map_pairs(wire, timeout=1e-4)
        except RequestTimeoutError as exc:
            print(f"   timeout error (stage={exc.stage!r}): {exc}")
        # Busy answers (full queue / client limit) are retried with
        # exponential backoff automatically; tune or disable per
        # client.  With retries exhausted, ServerBusyError surfaces.
        retrying = Client(address, busy_retries=4,
                          busy_backoff_s=0.05)
        print("   busy-retry policy: 4 retries, exponential backoff, "
              "honours the daemon's retry_after_s hint")
        retrying.close()

        client.shutdown()
    thread.join(timeout=10)
    print("6. Daemon shut down gracefully.")


if __name__ == "__main__":
    main()
