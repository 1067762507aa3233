"""Tests for the streaming execution face of the pipeline."""

import pytest

from repro.core import GenPairPipeline


class TestMapStream:
    def test_bit_identical_to_map_pairs(self, small_reference, seedmap,
                                        sample_pairs, result_signature):
        batched = GenPairPipeline(small_reference, seedmap=seedmap)
        streamed = GenPairPipeline(small_reference, seedmap=seedmap)
        expected = batched.map_pairs(sample_pairs, chunk_size=32)
        actual = list(streamed.map_stream(iter(sample_pairs),
                                          chunk_size=32))
        assert list(map(result_signature, expected)) \
            == list(map(result_signature, actual))
        assert batched.stats == streamed.stats

    def test_consumes_input_one_chunk_at_a_time(self, small_reference,
                                                seedmap, sample_pairs):
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        consumed = []

        def feed():
            for index, pair in enumerate(sample_pairs):
                consumed.append(index)
                yield pair

        stream = pipeline.map_stream(feed(), chunk_size=16)
        assert consumed == []  # nothing read before iteration starts
        next(stream)
        # One chunk (plus the probe element of the next) is buffered —
        # never the whole input.
        assert len(consumed) <= 17
        list(stream)
        assert len(consumed) == len(sample_pairs)

    def test_partial_final_chunk_flushed(self, small_reference, seedmap,
                                         sample_pairs):
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        results = list(pipeline.map_stream(iter(sample_pairs[:10]),
                                           chunk_size=7))
        assert len(results) == 10
        assert pipeline.stats.pairs_total == 10

    def test_bad_chunk_size_rejected(self, small_reference, seedmap):
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        with pytest.raises(ValueError):
            list(pipeline.map_stream(iter([]), chunk_size=0))


class TestStreamNaming:
    def test_unnamed_tuples_numbered_globally(self, small_reference,
                                              seedmap, sample_pairs):
        # Regression: synthetic pair{N} names used a chunk-relative
        # index, so unnamed tuples collided across stream buffers
        # (pair0, pair1, ... repeated every chunk).
        tuples = [(pair.read1.codes, pair.read2.codes)
                  for pair in sample_pairs]
        pipeline = GenPairPipeline(small_reference, seedmap=seedmap)
        names = [result.name for result in
                 pipeline.map_stream(iter(tuples), chunk_size=16)]
        assert names == [f"pair{i}" for i in range(len(tuples))]
        assert len(set(names)) == len(tuples)
