"""Command-line interface: thin shims over the :mod:`repro.api` facade.

Subcommands mirror a real read-mapping toolchain:

* ``simulate``      — generate a synthetic reference (FASTA), a diploid
  donor truth set (VCF), and paired-end reads (FASTQ x2);
* ``index build``   — precompute the SeedMap + encoded reference into a
  persistent memory-mapped index file (the ``bowtie2-build`` split);
* ``index inspect`` — print an index's fingerprint, tables, checksums;
* ``map``           — map FASTQ files through the engine-polymorphic
  :class:`repro.api.Mapper` facade and write SAM/PAF/JSONL;
  ``--engine`` selects the mapping engine (``genpair`` paired-end
  default, ``mm2`` baseline, ``longread`` single-read over one
  ``--reads`` FASTQ), ``--format`` the output writer,
  ``--call-variants out.vcf`` chains variant calling as a post-stage;
  reads stream through in O(batch) memory, ``--batch-size`` pairs per
  chunk, ``--workers N`` streams genpair chunks through a persistent
  pool of forked worker processes, and ``--index`` serves from a
  prebuilt index.  Every :class:`~repro.api.MappingConfig` field has
  one flag here (``--seed-length`` / ``--step`` on ``index build``);
  algorithm parameters are not flags;
* ``serve``         — run the long-lived mapping daemon: the index and
  the worker pool stay warm, and mapping requests arrive as
  newline-delimited JSON over a UNIX socket;
* ``client``        — talk to a running daemon (``ping`` / ``map`` /
  ``stats`` / ``shutdown``);
* ``stats``         — one-shot observability snapshot from a running
  daemon: server totals, per-engine counters, and the full metrics
  registry (counters / gauges / latency histograms) rendered as
  tables (``--json`` for the raw reply);
* ``top``           — live daemon dashboard: engines, request
  latencies, and worker utilization, refreshed every ``--interval``
  seconds until interrupted;
* ``call``          — pile up a SAM file and call variants to VCF;
* ``design``        — compose the GenPairX + GenDP hardware design and
  print the Table 3/4/5-style report.

Example::

    python -m repro.cli simulate --out demo --pairs 500
    python -m repro.cli index build --reference demo_ref.fa \
        --out demo.rpix
    python -m repro.cli map --index demo.rpix \
        --reads1 demo_1.fq --reads2 demo_2.fq --out demo.sam
    python -m repro.cli serve --index demo.rpix --workers 4 &
    python -m repro.cli client map --socket demo.rpix.sock \
        --reads1 demo_1.fq --reads2 demo_2.fq --out demo.sam
    python -m repro.cli client shutdown --socket demo.rpix.sock
    python -m repro.cli call --reference demo_ref.fa --sam demo.sam \
        --out demo.vcf
    python -m repro.cli design --memory HBM2
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .api.registry import ENGINES, OUTPUT_FORMATS
from .util.diagnostics import note, set_quiet


def _available_cpus() -> int:
    """CPUs this process may actually use: the scheduling affinity mask
    where available (respects cgroup/taskset limits in containers),
    falling back to the raw core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _int_arg(flag: str, minimum: int, note: str = ""):
    """Argparse type: an integer bounded below, with a clear error
    (``--workers`` and ``--batch-size`` must be positive)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{flag} must be >= {minimum}{note}, got {value}")
        return value
    return parse


def _float_arg(flag: str, above: float, note: str = ""):
    """Argparse type: a float strictly above a bound, with a clear
    error (``--request-timeout`` must be positive)."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number, got {text!r}")
        if not value > above:
            raise argparse.ArgumentTypeError(
                f"{flag} must be > {above:g}{note}, got {text}")
        return value
    return parse


def _tcp_arg(text: str):
    """Argparse type for ``--tcp``: a validated HOST:PORT address."""
    from .serve.address import AddressError, require_tcp

    try:
        return require_tcp(text)
    except AddressError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .genome import (ErrorModel, ReadSimulator, generate_reference,
                         plant_variants, write_fasta, write_fastq)
    from .variants import write_vcf

    rng = np.random.default_rng(args.seed)
    lengths = tuple(int(x) for x in args.chromosomes.split(","))
    reference = generate_reference(rng, lengths)
    donor = plant_variants(rng, reference)
    error_model = (ErrorModel.giab_like() if args.profile == "giab"
                   else ErrorModel.mason_default(args.error_rate))
    simulator = ReadSimulator(reference, donor=donor,
                              error_model=error_model, seed=args.seed + 1)
    pairs = simulator.simulate_pairs(args.pairs)

    write_fasta(f"{args.out}_ref.fa", reference)
    write_vcf(f"{args.out}_truth.vcf", donor.truth, reference=reference)
    write_fastq(f"{args.out}_1.fq",
                ((pair.read1.name, pair.read1.codes) for pair in pairs))
    write_fastq(f"{args.out}_2.fq",
                ((pair.read2.name, pair.read2.codes) for pair in pairs))
    print(f"wrote {args.out}_ref.fa ({reference.total_length:,} bp), "
          f"{args.out}_truth.vcf ({len(donor.truth)} variants), "
          f"{args.out}_1.fq / {args.out}_2.fq ({args.pairs} pairs)")
    return 0


def _build_mapper(args: argparse.Namespace):
    """Construct the :class:`repro.api.Mapper` the ``map`` and
    ``serve`` shims share, from their common flags.

    Returns ``(mapper, None)`` or ``(None, exit_code)`` with the error
    already printed.
    """
    from .api import Mapper, MappingConfigError
    from .index import IndexFormatError

    if (args.index is None) == (args.reference is None):
        print(f"error: {args.command} needs exactly one of "
              "--reference or --index", file=sys.stderr)
        return None, 2
    engine = args.engine
    if engine != "genpair" and args.workers > 1:
        note(f"the worker pool serves the genpair engine; "
             f"--engine {engine} maps in-process (the pool still "
             "serves genpair requests of a daemon)")
    cpus = _available_cpus()
    if args.workers > cpus:
        note(f"--workers {args.workers} exceeds the {cpus} "
             f"available CPU(s); capping at {cpus}")
        args.workers = cpus
    overrides = dict(delta=args.delta, batch_size=args.batch_size,
                     workers=args.workers,
                     full_fallback=not args.no_fallback,
                     engine=engine,
                     output_format=args.format)
    # The fingerprint gate: an explicit --filter-threshold must match
    # what an index was built with (from_fingerprint rejects a
    # conflict); against FASTA it configures the in-process build.
    if args.filter_threshold is not None:
        overrides["filter_threshold"] = args.filter_threshold
    try:
        if args.index is not None:
            mapper = Mapper.from_index(
                args.index, verify_index=not args.no_verify,
                **overrides)
        else:
            mapper = Mapper.from_reference(args.reference, **overrides)
    except (IndexFormatError, MappingConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 1
    return mapper, None


def _print_map_report(stats, count: int, out: str) -> None:
    print(f"mapped {stats.pairs_total} pairs -> {count} records "
          f"({out})")
    print(f"  light-aligned {stats.light_aligned_pct:.1f}% | "
          f"DP-at-candidates {stats.light_fallback_pct:.1f}% | "
          f"full fallback "
          f"{stats.seedmap_fallback_pct + stats.filter_fallback_pct:.1f}%"
          f" | unmapped {stats.unmapped}")


def _print_engine_report(engine: str, stats, count: int,
                         out: str) -> None:
    """Per-engine run summary; ``stats`` may be the engine's dataclass
    or the daemon's plain-dict form of it."""
    if isinstance(stats, dict):
        get = stats.get
    else:
        def get(name, default=0):
            return getattr(stats, name, default)
    if engine == "mm2":
        print(f"mapped {get('pairs_seen')} pairs -> {count} records "
              f"({out})")
        print(f"  proper pairs {get('pairs_proper')} | mate rescues "
              f"{get('mate_rescues')} of {get('rescue_attempts')} "
              f"attempts ({get('rescue_whole_window')} whole-window) | "
              f"reads mapped {get('reads_mapped')} | anchors "
              f"{get('anchors_total')} | chaining cells "
              f"{get('dp_cells_chaining')}")
    elif engine == "longread":
        print(f"mapped {get('reads_total')} long reads -> {count} "
              f"records ({out})")
        print(f"  placed {get('mapped')} | pseudo-pairs "
              f"{get('pseudo_pairs')} | DP cells {get('dp_cells'):,}")
    else:  # genpair
        if isinstance(stats, dict):
            from .core import PipelineStats

            stats = PipelineStats(**stats)
        _print_map_report(stats, count, out)


def _map_input(args: argparse.Namespace):
    """The FASTQ paths ``map`` should feed its engine, validated for
    the engine's input arity; ``(reads1, reads2)`` or ``None`` with the
    error already printed."""
    single = args.reads
    engine = args.engine
    if engine == "longread":
        if single is None:
            print("error: --engine longread maps a single FASTQ; "
                  "pass --reads (not --reads1/--reads2)",
                  file=sys.stderr)
            return None
        if args.reads1 is not None or args.reads2 is not None:
            print("error: --reads and --reads1/--reads2 are mutually "
                  "exclusive", file=sys.stderr)
            return None
        return single, None
    if single is not None:
        print(f"error: --reads is for single-read engines; --engine "
              f"{engine} needs --reads1 and --reads2", file=sys.stderr)
        return None
    if args.reads1 is None or args.reads2 is None:
        print(f"error: --engine {engine} needs both --reads1 and "
              "--reads2", file=sys.stderr)
        return None
    return args.reads1, args.reads2


def _cmd_map(args: argparse.Namespace) -> int:
    from .api import MappingConfigError
    from .genome import FastaError

    paths = _map_input(args)
    if paths is None:
        return 2
    if args.out is None:
        args.out = f"out.{args.format}"
    mapper, code = _build_mapper(args)
    if mapper is None:
        return code
    with mapper:
        try:
            results = mapper.map_file(paths[0], paths[1])
            if args.call_variants:
                count, calls = mapper.map_and_call(
                    results, args.out, args.call_variants)
            else:
                count = mapper.write(results, args.out)
        except (FastaError, MappingConfigError) as exc:
            # Engines build lazily inside map_file, so engine-specific
            # config errors (e.g. longread chunk_length vs the index's
            # seed_length) surface here, not in _build_mapper.
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            teardown = ("worker pool torn down, " if mapper.uses_pool
                        else "")
            print(f"\ninterrupted: {teardown}partial output left at "
                  f"{args.out}", file=sys.stderr)
            return 130
        _print_engine_report(args.engine, mapper.last_stats, count,
                             args.out)
        if args.call_variants:
            print(f"  called {calls} variants ({args.call_variants})")
    if args.metrics_json:
        from .obs import write_metrics_json

        write_metrics_json(args.metrics_json)
        print(f"  metrics written to {args.metrics_json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .api import ServeSettings, ServerError, serve

    mapper, code = _build_mapper(args)
    if mapper is None:
        return code
    socket_path = args.socket
    if socket_path is None:
        socket_path = (args.index if args.index is not None
                       else args.reference) + ".sock"
    settings = ServeSettings(
        max_queue=args.max_queue,
        max_clients=args.max_clients,
        request_timeout_s=args.request_timeout,
        coalesce_requests=args.coalesce_max,
        coalesce_wait_s=args.coalesce_wait_ms / 1000.0)
    source = args.index if args.index is not None else args.reference
    endpoints = socket_path if args.tcp is None \
        else f"{socket_path} + tcp {args.tcp.display}"
    print(f"serving {source} on {endpoints} "
          f"(pid {os.getpid()}, workers={args.workers}, "
          f"batch={args.batch_size}, max-clients={args.max_clients}, "
          f"max-queue={args.max_queue}); stop with `repro client "
          f"shutdown --socket {socket_path}` or SIGTERM",
          flush=True)
    try:
        server = serve(mapper, socket_path, tcp=args.tcp,
                       settings=settings)
    except ServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        mapper.close()
        return 1
    report = server.stats
    print(f"daemon stopped after {report.uptime_s:.1f}s: "
          f"{report.requests} requests, {report.pairs_mapped} pairs "
          f"mapped, {report.errors} errors")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from .api import Client, ClientError

    single = args.engine == "longread"
    if args.action == "map":
        if args.reads1 is None:
            print("error: client map needs --reads1", file=sys.stderr)
            return 2
        if single and args.reads2 is not None:
            print("error: --engine longread maps a single FASTQ; "
                  "pass --reads1 alone", file=sys.stderr)
            return 2
        if not single and args.reads2 is None:
            print("error: client map needs --reads2 (paired engines)",
                  file=sys.stderr)
            return 2
    try:
        with Client(args.socket, timeout=args.timeout) as client:
            if args.action == "ping":
                reply = client.ping()
                print(f"daemon alive: pid {reply['pid']}, up "
                      f"{reply['uptime_s']}s, index "
                      f"{reply['index'] or '(in-memory reference)'}, "
                      f"workers={reply['workers']}, engines "
                      f"{','.join(reply.get('engines', []))}")
            elif args.action == "stats":
                print(json.dumps(client.stats(), indent=2,
                                 sort_keys=True))
            elif args.action == "shutdown":
                client.shutdown()
                print("daemon shut down")
            else:  # map
                out = args.out
                if out is None:
                    out = f"out.{args.format or 'sam'}"
                reply = client.map_file(args.reads1, args.reads2,
                                        out, engine=args.engine,
                                        format=args.format)
                _print_engine_report(reply.get("engine", "genpair"),
                                     reply["stats"],
                                     reply["records"], reply["out"])
                print(f"  daemon-side elapsed {reply['elapsed_s']}s")
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: one observability snapshot from the daemon."""
    import json

    from .api import Client, ClientError
    from .obs import render_metrics, render_top

    try:
        with Client(args.socket, timeout=args.timeout) as client:
            reply = client.stats()
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    for line in render_top(reply):
        print(line)
    print()
    for line in render_metrics(reply.get("metrics", {})):
        print(line)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: the daemon dashboard, redrawn every interval."""
    import time

    from .api import Client, ClientError
    from .obs import render_top

    frames = 0
    try:
        with Client(args.socket, timeout=args.timeout) as client:
            while True:
                reply = client.stats()
                if frames:
                    # Clear + home between refreshes only, so a single
                    # frame (--count 1) composes with pipes and tests.
                    print("\x1b[2J\x1b[H", end="")
                for line in render_top(reply):
                    print(line)
                frames += 1
                if args.count and frames >= args.count:
                    return 0
                sys.stdout.flush()
                time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_index_build(args: argparse.Namespace) -> int:
    import time

    from .core import SeedMap
    from .genome import read_fasta
    from .index import INDEX_SUFFIX, save_index

    reference = read_fasta(args.reference)
    threshold = None if args.no_filter else args.filter_threshold
    start = time.perf_counter()
    seedmap = SeedMap.build(reference, seed_length=args.seed_length,
                            filter_threshold=threshold, step=args.step)
    build_seconds = time.perf_counter() - start
    out = args.out if args.out else args.reference + INDEX_SUFFIX
    total = save_index(out, seedmap, reference)
    stats = seedmap.stats
    print(f"indexed {reference.total_length:,} bp "
          f"({len(reference.names)} chromosomes) in {build_seconds:.2f}s")
    print(f"  {stats.distinct_seeds:,} seeds, "
          f"{stats.stored_locations:,} locations "
          f"({stats.filtered_seeds:,} seeds over threshold dropped)")
    print(f"wrote {out} ({total:,} bytes)")
    return 0


def _cmd_index_inspect(args: argparse.Namespace) -> int:
    from .index import IndexFormatError, inspect_index
    from .util import format_table

    try:
        report = inspect_index(args.index, verify=not args.no_verify)
    except IndexFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta = report["meta"]
    reference = meta["reference"]
    threshold = meta["filter_threshold"]
    print(f"{report['path']}: SeedMap index "
          f"(format v{meta['format_version']}, "
          f"{report['file_bytes']:,} bytes)")
    print(f"  fingerprint: seed length {meta['seed_length']}, filter "
          f"threshold {'none' if threshold is None else threshold}, "
          f"step {meta['step']}")
    print(f"  reference: {reference['total_length']:,} bp in "
          f"{len(reference['names'])} chromosomes "
          f"({', '.join(reference['names'][:6])}"
          f"{', ...' if len(reference['names']) > 6 else ''})")
    checks = ("ok" if report["checksums_ok"]
              else "skipped (--no-verify)")
    print(f"  checksums: {checks}")
    print(format_table(
        ("array", "dtype", "entries", "bytes", "crc32"),
        [(row["name"], row["dtype"], f"{row['count']:,}",
          f"{row['bytes']:,}", f"{row['crc32']:08x}")
         for row in report["arrays"]],
        title="Data sections"))
    return 0


def _cmd_call(args: argparse.Namespace) -> int:
    from .genome import AlignmentRecord, Cigar, encode, read_fasta
    from .variants import Pileup, call_variants, write_vcf

    reference = read_fasta(args.reference)
    pileup = Pileup(reference)
    used = 0
    with open(args.sam) as handle:
        for line in handle:
            if line.startswith("@"):
                continue
            fields = line.rstrip("\n").split("\t")
            flag = int(fields[1])
            if flag & 4 or fields[5] == "*" or fields[9] == "*":
                continue
            record = AlignmentRecord(
                query_name=fields[0], chromosome=fields[2],
                position=int(fields[3]) - 1,
                strand="-" if flag & 16 else "+",
                cigar=Cigar.parse(fields[5]),
                read_codes=_sam_codes(fields[9], flag),
                mapped=True)
            pileup.add_record(record)
            used += 1
    calls = call_variants(pileup)
    count = write_vcf(args.out, calls, reference=reference)
    print(f"piled up {used} records, wrote {count} calls to {args.out}")
    return 0


def _sam_codes(seq: str, flag: int):
    """SAM stores the reverse-strand read already reverse-complemented;
    our records store the as-sequenced read, so undo it."""
    from .genome import encode, reverse_complement

    codes = encode(seq, allow_n=True)
    codes[codes == 4] = 0  # N -> arbitrary concrete base
    if flag & 16:
        return reverse_complement(codes)
    return codes


def _cmd_design(args: argparse.Namespace) -> int:
    from .hw import (GenPairXDesign, MEMORY_PRESETS, WorkloadProfile,
                     host_bandwidth, link_feasibility)
    from .util import format_table

    memory = MEMORY_PRESETS[args.memory]
    design = GenPairXDesign(WorkloadProfile.paper(), memory=memory,
                            window_size=args.window,
                            simulated_pairs=args.simulated_pairs
                            ).compose()
    print(format_table(
        ("module", "MPair/s per inst", "latency cyc", "instances"),
        [(m.name, f"{m.throughput_mpairs:.1f}",
          f"{m.latency_cycles:.1f}", m.instances)
         for m in design.modules],
        title=f"Module sizing ({memory.name}, window {args.window})"))
    print()
    print(format_table(
        ("component", "area mm2", "power mW"),
        [(name, f"{area:.3f}", f"{power:,.1f}")
         for name, area, power in design.area_power_rows()],
        title="Area / power breakdown"))
    perf = design.as_system_perf()
    print(f"\nend-to-end: {perf.throughput_mbps:,.0f} Mbp/s | "
          f"{perf.per_area:.1f} Mbp/s/mm2 | {perf.per_watt:.1f} Mbp/s/W")
    report = host_bandwidth(design.target_mpairs)
    print(f"host interface: in {report.input_gbps:.1f} GB/s, out "
          f"{report.output_gbps:.1f} GB/s")
    for link, (headroom, fits) in link_feasibility(report).items():
        print(f"  {link}: headroom {headroom:.1f}x "
              f"({'OK' if fits else 'insufficient'})")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .lint import CODES, run_lint

    if args.list_codes:
        width = max(len(code) for code in CODES)
        for code, meaning in sorted(CODES.items()):
            print(f"{code:<{width}}  {meaning}")
        return 0
    if args.paths:
        roots = [Path(p) for p in args.paths]
    else:
        import repro
        roots = [Path(repro.__file__).parent]
    select = [s.strip() for s in args.select.split(",")
              if s.strip()] if args.select else None
    ignore = [s.strip() for s in args.ignore.split(",")
              if s.strip()] if args.ignore else None
    exclude = [s.strip() for s in (args.exclude or []) if s.strip()]

    try:
        report = run_lint(roots, select=select, ignore=ignore,
                          exclude=exclude)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for line in report.render(relative_to=Path.cwd()):
            print(line)
        if report.clean:
            print(f"clean: {len(roots)} root(s), "
                  f"{len(report.suppressed)} suppressed")
    if args.strict and not report.clean:
        return 2
    return 0


def _add_mapper_args(parser: argparse.ArgumentParser) -> None:
    """The flags ``map`` and ``serve`` share (they build one Mapper)."""
    parser.add_argument("--engine", choices=tuple(ENGINES),
                        default="genpair",
                        help="mapping engine: the paper's paired-end "
                             "pipeline (default), the mm2-like "
                             "baseline, or single-read long-read "
                             "voting")
    parser.add_argument("--format", choices=tuple(OUTPUT_FORMATS),
                        default="sam",
                        help="output format (every engine writes "
                             "every format)")
    parser.add_argument("--reference",
                        help="FASTA reference (SeedMap is rebuilt per "
                             "run; use --index to skip that)")
    parser.add_argument("--index",
                        help="persistent index from `repro index "
                             "build`; memory-mapped, so opening is "
                             "cheap and forked workers share it")
    parser.add_argument("--no-verify", action="store_true",
                        help="with --index: skip array checksum "
                             "verification (the trusted-file reopen "
                             "fast path; opening is then O(header))")
    parser.add_argument("--delta", type=int, default=500)
    parser.add_argument("--filter-threshold", type=int, default=None,
                        help="index filtering threshold (default 500); "
                             "with --index it must match the index "
                             "fingerprint")
    parser.add_argument("--no-fallback", action="store_true",
                        help="disable the MM2 full-DP fallback")
    parser.add_argument("--batch-size",
                        type=_int_arg("--batch-size", 1,
                                      " (the pair-by-pair engine that "
                                      "0 selected is gone; 1 gives the "
                                      "same output)"),
                        default=256,
                        help="pairs per chunk: seeds are hashed and "
                             "resolved against the SeedMap in one "
                             "call per chunk (results are identical "
                             "whatever the size)")
    parser.add_argument("--workers", type=_int_arg("--workers", 1),
                        default=1,
                        help="stream batches through a persistent "
                             "pool of N forked worker processes "
                             "(1 = in-process; capped at the CPU "
                             "count; worker stats are merged into "
                             "the final report)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GenPairX reproduction toolchain")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress advisory notes/warnings on "
                             "stderr (record output and errors are "
                             "unaffected; REPRO_QUIET=1 does the same)")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate",
                              help="generate reference + truth + reads")
    simulate.add_argument("--out", default="sim",
                          help="output file prefix")
    simulate.add_argument("--pairs", type=int, default=500)
    simulate.add_argument("--chromosomes", default="200000,100000",
                          help="comma-separated chromosome lengths")
    simulate.add_argument("--profile", choices=("giab", "mason"),
                          default="giab")
    simulate.add_argument("--error-rate", type=float, default=0.004,
                          help="per-base error rate (mason profile)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(func=_cmd_simulate)

    index_cmd = sub.add_parser(
        "index", help="build / inspect a persistent SeedMap index")
    index_sub = index_cmd.add_subparsers(dest="index_command",
                                         required=True)
    index_build = index_sub.add_parser(
        "build", help="precompute SeedMap + reference to an index file")
    index_build.add_argument("--reference", required=True)
    index_build.add_argument("--out", default=None,
                             help="output path (default: "
                                  "<reference>.rpix)")
    index_build.add_argument("--seed-length", type=int, default=50)
    index_build.add_argument("--filter-threshold", type=int, default=500)
    index_build.add_argument("--no-filter", action="store_true",
                             help="keep every seed (Table 7 'no filter' "
                                  "configuration)")
    index_build.add_argument("--step", type=int, default=1,
                             help="stride between indexed reference "
                                  "positions")
    index_build.set_defaults(func=_cmd_index_build)
    index_inspect = index_sub.add_parser(
        "inspect", help="print an index's fingerprint and tables")
    index_inspect.add_argument("--index", required=True)
    index_inspect.add_argument("--no-verify", action="store_true",
                               help="skip array checksum verification")
    index_inspect.set_defaults(func=_cmd_index_inspect)

    map_cmd = sub.add_parser(
        "map", help="map FASTQ to SAM/PAF/JSONL (any engine)")
    _add_mapper_args(map_cmd)
    map_cmd.add_argument("--reads1", help="R1 FASTQ (paired engines)")
    map_cmd.add_argument("--reads2", help="R2 FASTQ (paired engines)")
    map_cmd.add_argument("--reads",
                         help="single FASTQ (single-read engines, "
                              "i.e. --engine longread)")
    map_cmd.add_argument("--out", default=None,
                         help="output path (default: out.<format>)")
    map_cmd.add_argument("--call-variants", metavar="VCF", default=None,
                         help="also pile up the mapped records and "
                              "call variants to this VCF path "
                              "(one pass over the stream)")
    map_cmd.add_argument("--metrics-json", metavar="PATH", default=None,
                         help="after the run, dump the process metrics "
                              "registry (stage timings, worker "
                              "utilization, host metadata) as JSON")
    map_cmd.set_defaults(func=_cmd_map)

    serve_cmd = sub.add_parser(
        "serve", help="run the persistent mapping daemon: warm index "
                      "+ worker pool behind a UNIX socket and/or a "
                      "TCP endpoint, serving many clients at once")
    _add_mapper_args(serve_cmd)
    serve_cmd.add_argument("--socket", default=None,
                           help="UNIX socket path (default: "
                                "<index|reference>.sock)")
    serve_cmd.add_argument("--tcp", type=_tcp_arg, default=None,
                           metavar="HOST:PORT",
                           help="also listen on this TCP address "
                                "(':7533' binds every interface; "
                                "port 0 picks a free port)")
    serve_cmd.add_argument("--max-clients",
                           type=_int_arg("--max-clients", 1),
                           default=64, metavar="N",
                           help="concurrent connections before new "
                                "ones are refused with a busy error "
                                "(default: 64)")
    serve_cmd.add_argument("--max-queue",
                           type=_int_arg("--max-queue", 1),
                           default=64, metavar="N",
                           help="queued mapping requests before new "
                                "ones are refused with a busy error "
                                "(default: 64)")
    serve_cmd.add_argument("--request-timeout",
                           type=_float_arg(
                               "--request-timeout", 0.0,
                               " (per-request timeout_s can disable "
                               "the deadline)"),
                           default=300.0, metavar="SECONDS",
                           help="default per-request deadline; "
                                "expired requests answer a timeout "
                                "error (default: 300)")
    serve_cmd.add_argument("--coalesce-max",
                           type=_int_arg("--coalesce-max", 1),
                           default=16, metavar="N",
                           help="most map requests coalesced into one "
                                "engine run (default: 16; 1 disables "
                                "coalescing)")
    serve_cmd.add_argument("--coalesce-wait-ms",
                           type=_int_arg("--coalesce-wait-ms", 0),
                           default=0, metavar="MS",
                           help="how long a batch waits for more "
                                "requests before flushing (default: "
                                "0 — coalesce only requests already "
                                "queued, adding no idle latency)")
    serve_cmd.set_defaults(func=_cmd_serve)

    client_cmd = sub.add_parser(
        "client", help="talk to a running `repro serve` daemon")
    client_cmd.add_argument("action",
                            choices=("ping", "map", "stats",
                                     "shutdown"))
    client_cmd.add_argument("--socket", required=True,
                            help="the daemon's UNIX socket path or "
                                 "TCP HOST:PORT address")
    client_cmd.add_argument("--timeout", type=float, default=None,
                            help="socket timeout in seconds (default: "
                                 "wait as long as the mapping takes)")
    client_cmd.add_argument("--reads1",
                            help="client map: R1 FASTQ (or the single "
                                 "FASTQ for --engine longread)")
    client_cmd.add_argument("--reads2", help="client map: R2 FASTQ")
    client_cmd.add_argument("--engine", default=None,
                            choices=tuple(ENGINES),
                            help="client map: per-request engine "
                                 "(default: the daemon's)")
    client_cmd.add_argument("--format", default=None,
                            choices=tuple(OUTPUT_FORMATS),
                            help="client map: per-request output "
                                 "format (default: the daemon's)")
    client_cmd.add_argument("--out", default=None,
                            help="client map: output path (written by "
                                 "the daemon process; default: "
                                 "out.<format>)")
    client_cmd.set_defaults(func=_cmd_client)

    stats_cmd = sub.add_parser(
        "stats", help="one-shot observability snapshot from a running "
                      "daemon (server totals + metrics registry)")
    stats_cmd.add_argument("--socket", required=True,
                           help="the daemon's UNIX socket path or "
                                "TCP HOST:PORT address")
    stats_cmd.add_argument("--timeout", type=float, default=10.0,
                           help="socket timeout in seconds")
    stats_cmd.add_argument("--json", action="store_true",
                           help="print the raw stats reply as JSON")
    stats_cmd.set_defaults(func=_cmd_stats)

    top_cmd = sub.add_parser(
        "top", help="live daemon dashboard: engines, request "
                    "latencies, worker utilization")
    top_cmd.add_argument("--socket", required=True,
                         help="the daemon's UNIX socket path or "
                              "TCP HOST:PORT address")
    top_cmd.add_argument("--interval", type=float, default=2.0,
                         help="seconds between refreshes")
    top_cmd.add_argument("--count", type=int, default=0,
                         help="frames to draw before exiting "
                              "(0 = refresh until interrupted)")
    top_cmd.add_argument("--timeout", type=float, default=10.0,
                         help="socket timeout in seconds")
    top_cmd.set_defaults(func=_cmd_top)

    call = sub.add_parser("call", help="call variants from a SAM file")
    call.add_argument("--reference", required=True)
    call.add_argument("--sam", required=True)
    call.add_argument("--out", default="calls.vcf")
    call.set_defaults(func=_cmd_call)

    design = sub.add_parser("design",
                            help="compose the hardware design report")
    design.add_argument("--memory", choices=("HBM2", "GDDR6", "DDR5"),
                        default="HBM2")
    design.add_argument("--window", type=int, default=1024)
    design.add_argument("--simulated-pairs", type=int, default=6000)
    design.set_defaults(func=_cmd_design)

    lint_cmd = sub.add_parser(
        "lint", help="run the project static-analysis gate")
    lint_cmd.add_argument("paths", nargs="*",
                          help="directories/files to lint (default: "
                               "the installed repro package)")
    lint_cmd.add_argument("--strict", action="store_true",
                          help="exit 2 on any finding (the CI gate)")
    lint_cmd.add_argument("--select", default=None,
                          help="comma-separated code prefixes to "
                               "report (e.g. RPL2,RPL5); checkers "
                               "with no selected code are not run")
    lint_cmd.add_argument("--ignore", default=None,
                          help="comma-separated code prefixes to "
                               "drop (wins over --select)")
    lint_cmd.add_argument("--json", action="store_true",
                          help="machine-readable report on stdout")
    lint_cmd.add_argument("--exclude", action="append", default=None,
                          metavar="FRAGMENT",
                          help="drop findings whose path contains this "
                               "fragment (repeatable; e.g. "
                               "tests/lint/fixtures)")
    lint_cmd.add_argument("--list-codes", action="store_true",
                          help="print the finding-code table and exit")
    lint_cmd.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous_quiet = set_quiet(True) if args.quiet else None
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        # Missing inputs are usage problems, not crashes: no traceback.
        name = exc.filename if exc.filename is not None else exc
        print(f"error: no such file: {name}", file=sys.stderr)
        return 1
    finally:
        # Restore for in-process callers (tests drive main() directly).
        if args.quiet:
            set_quiet(previous_quiet)


if __name__ == "__main__":
    sys.exit(main())
