"""Pipeline instrumentation: metrics deltas and spans."""

import pytest

from repro.core import GenPairPipeline
from repro.obs import capture_trace, get_registry, set_metrics_enabled


@pytest.fixture()
def named_tuples(sample_pairs):
    return [(pair.read1.codes, pair.read2.codes, pair.name)
            for pair in sample_pairs]


class TestChunkMetrics:
    def test_batch_run_records_chunks_pairs_and_stage_timings(
            self, small_reference, seedmap, named_tuples,
            counter_deltas):
        registry = get_registry()
        before = registry.snapshot()
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        pipeline.map_pairs(named_tuples, chunk_size=16)
        after = registry.snapshot()
        chunks = -(-len(named_tuples) // 16)
        deltas = counter_deltas(before, after, "pipeline.")
        assert deltas["pipeline.chunks"] == chunks
        assert deltas["pipeline.pairs"] == len(named_tuples)
        for name in ("pipeline.seed_query_s",
                     "pipeline.filter_align_s"):
            recorded = (after["histograms"][name]["count"]
                        - before["histograms"].get(name,
                                                   {}).get("count", 0))
            assert recorded == chunks

    def test_disabled_metrics_record_nothing(self, small_reference,
                                             seedmap, named_tuples):
        registry = get_registry()
        previous = set_metrics_enabled(False)
        try:
            before = registry.snapshot()
            pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
            pipeline.map_pairs(named_tuples[:32], chunk_size=16)
            after = registry.snapshot()
        finally:
            set_metrics_enabled(previous)
        assert before == after

    def test_trace_captures_per_chunk_stage_spans(
            self, small_reference, seedmap, named_tuples, seedmap_probes):
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        with capture_trace() as tracer:
            pipeline.map_pairs(named_tuples[:32], chunk_size=16)
        depths = {(record.name, record.depth) for record in tracer.records}
        names = [record.name for record in tracer.records]
        # One span per chunk, and one per SeedMap probe inside it: the
        # fr roles, then the rf roles of the pairs fr left, if any.
        assert names.count("pair.filter_align") == 2
        assert names.count("seed.query_batch") == len(seedmap_probes)
        assert seedmap_probes[0] == 32 and 2 <= len(seedmap_probes) <= 4
        assert depths == {("pair.filter_align", 0), ("seed.query_batch", 1)}
