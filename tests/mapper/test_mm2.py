"""Tests for the baseline seed-chain-align mapper."""

import numpy as np
import pytest

from repro.genome import random_sequence, reverse_complement
from repro.mapper import MapperConfig, MinimizerIndex, Mm2LikeMapper, \
    make_full_fallback


@pytest.fixture(scope="module")
def mapper(plain_reference):
    return Mm2LikeMapper(plain_reference)


class TestSingleEnd:
    def test_forward_read(self, plain_reference, mapper):
        codes = plain_reference.fetch("chr1", 6000, 6150)
        record = mapper.map_read(codes, "fwd")
        assert record.mapped
        assert record.chromosome == "chr1"
        assert record.position == 6000
        assert record.strand == "+"
        assert record.score == 300

    def test_reverse_read(self, plain_reference, mapper):
        codes = reverse_complement(
            plain_reference.fetch("chr1", 8000, 8150))
        record = mapper.map_read(codes, "rev")
        assert record.mapped
        assert record.position == 8000
        assert record.strand == "-"

    def test_read_with_errors(self, plain_reference, mapper):
        codes = plain_reference.fetch("chr1", 9000, 9150).copy()
        for pos in (30, 80, 120):
            codes[pos] = (codes[pos] + 1) % 4
        record = mapper.map_read(codes, "errs")
        assert record.mapped
        assert record.position == 9000
        assert record.score == 300 - 3 * 10

    def test_garbage_unmapped(self, mapper):
        record = mapper.map_read(
            random_sequence(np.random.default_rng(31), 150), "junk")
        assert not record.mapped

    def test_cells_accounted(self, plain_reference):
        fresh = Mm2LikeMapper(plain_reference)
        fresh.map_read(plain_reference.fetch("chr1", 500, 650), "x")
        assert fresh.stats.dp_cells_chaining >= 0
        assert fresh.stats.dp_cells_alignment > 0


class TestPairedEnd:
    def test_proper_pair(self, plain_reference, mapper, clean_pairs):
        pair = clean_pairs[0]
        rec1, rec2, proper = mapper.map_pair(pair.read1.codes,
                                             pair.read2.codes, pair.name)
        assert proper
        assert rec1.position == pair.read1.ref_start
        assert rec2.position == pair.read2.ref_start
        assert rec1.strand == "+"
        assert rec2.strand == "-"

    def test_mate_rescue(self, plain_reference, clean_pairs):
        """Corrupt read2's seeds; rescue must still place it."""
        mapper = Mm2LikeMapper(plain_reference)
        pair = clean_pairs[1]
        read2 = pair.read2.codes.copy()
        for pos in range(0, 150, 11):  # break every minimizer
            read2[pos] = (read2[pos] + 1) % 4
        rec1, rec2, proper = mapper.map_pair(pair.read1.codes, read2,
                                             "rescue")
        assert proper
        assert abs(rec2.position - pair.read2.ref_start) <= 5
        assert mapper.stats.mate_rescues >= 1

    def test_mate_rescue_disabled_by_config(self, plain_reference,
                                            clean_pairs):
        """Same corrupted mate, rescue off: no rescue is attempted."""
        mapper = Mm2LikeMapper(plain_reference,
                               config=MapperConfig(mate_rescue=False))
        pair = clean_pairs[1]
        read2 = pair.read2.codes.copy()
        for pos in range(0, 150, 11):  # break every minimizer
            read2[pos] = (read2[pos] + 1) % 4
        rec1, rec2, proper = mapper.map_pair(pair.read1.codes, read2,
                                             "norescue")
        assert not proper
        assert mapper.stats.mate_rescues == 0
        assert rec1.mapped  # read1 still maps independently

    def test_map_pairs_batch_matches_map_pair(self, plain_reference,
                                              clean_pairs):
        serial = Mm2LikeMapper(plain_reference)
        batched = Mm2LikeMapper(plain_reference)
        items = [(p.read1.codes, p.read2.codes, p.name)
                 for p in clean_pairs[:5]]
        expected = [serial.map_pair(*item) for item in items]
        got = batched.map_pairs(items)
        for (e1, e2, ep), (g1, g2, gp) in zip(expected, got):
            assert (e1.position, e2.position, ep) \
                == (g1.position, g2.position, gp)
        assert batched.stats.pairs_seen == serial.stats.pairs_seen

    def test_stage_spans_recorded_under_a_trace(self, plain_reference,
                                                clean_pairs):
        from repro.obs import capture_trace

        mapper = Mm2LikeMapper(plain_reference)
        with capture_trace() as tracer:
            mapper.map_pair(clean_pairs[2].read1.codes,
                            clean_pairs[2].read2.codes, "t")
        seconds = {}
        for record in tracer.records:
            seconds[record.name] = (seconds.get(record.name, 0.0)
                                    + record.elapsed_s)
        assert set(seconds) == {"mm2.seeding", "mm2.chaining",
                                "mm2.alignment", "mm2.pairing"}
        assert all(value > 0 for value in seconds.values())
        assert not hasattr(mapper, "timer")


class TestFallbackAdapter:
    def test_fallback_returns_records_and_cells(self, plain_reference,
                                                clean_pairs):
        mapper = Mm2LikeMapper(plain_reference)
        fallback = make_full_fallback(mapper)
        pair = clean_pairs[3]
        outcome = fallback(pair.read1.codes, pair.read2.codes, "fb")
        assert outcome is not None
        rec1, rec2, cells = outcome
        assert rec1.mapped and rec2.mapped
        assert cells > 0

    def test_fallback_none_for_garbage(self, plain_reference):
        mapper = Mm2LikeMapper(plain_reference)
        fallback = make_full_fallback(mapper)
        rng = np.random.default_rng(33)
        assert fallback(random_sequence(rng, 150),
                        random_sequence(rng, 150), "junk") is None
