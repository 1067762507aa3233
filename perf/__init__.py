"""The repo benchmark: FASTQ->SAM and daemon workloads with a per-layer
trace.  See ``perf/README.md``; ``BENCHMARK.json`` at the repo root is
the machine-read declaration."""
