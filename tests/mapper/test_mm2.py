"""Tests for the baseline seed-chain-align mapper."""

import dataclasses

import numpy as np
import pytest

from repro.genome import random_sequence, reverse_complement
from repro.mapper import MinimizerIndex, Mm2LikeMapper


@pytest.fixture(scope="module")
def mapper(plain_reference):
    return Mm2LikeMapper(plain_reference)


class TestSingleEnd:
    """One read placed on its own: read 1 of a pair whose mate cannot
    be placed."""

    def test_forward_read(self, plain_reference, mapper, map_alone):
        codes = plain_reference.fetch("chr1", 6000, 6150)
        record = map_alone(mapper, codes, "fwd")
        assert record.mapped
        assert record.chromosome == "chr1"
        assert record.position == 6000
        assert record.strand == "+"
        assert record.score == 300

    def test_reverse_read(self, plain_reference, mapper, map_alone):
        codes = reverse_complement(
            plain_reference.fetch("chr1", 8000, 8150))
        record = map_alone(mapper, codes, "rev")
        assert record.mapped
        assert record.position == 8000
        assert record.strand == "-"

    def test_read_with_errors(self, plain_reference, mapper, map_alone):
        codes = plain_reference.fetch("chr1", 9000, 9150).copy()
        for pos in (30, 80, 120):
            codes[pos] = (codes[pos] + 1) % 4
        record = map_alone(mapper, codes, "errs")
        assert record.mapped
        assert record.position == 9000
        assert record.score == 300 - 3 * 10

    def test_garbage_unmapped(self, mapper, map_alone):
        record = map_alone(
            mapper, random_sequence(np.random.default_rng(31), 150), "junk")
        assert not record.mapped

    def test_cells_accounted(self, plain_reference, map_alone):
        fresh = Mm2LikeMapper(plain_reference)
        map_alone(fresh, plain_reference.fetch("chr1", 500, 650), "x")
        # Error-free read on a repeat-free reference: every anchor is
        # on the forward strand, and n anchors cost sum(min(i, 25)); the
        # all-N mate has none.
        anchors = fresh.stats.anchors_total
        assert anchors > 25
        assert fresh.stats.dp_cells_chaining == 300 + (anchors - 25) * 25
        assert fresh.stats.dp_cells_alignment > 0


class TestIndexMismatch:
    """A table of other minimizers finds no anchors: every read would
    come out unmapped, so the mapper refuses it up front."""

    @pytest.mark.parametrize("k, w", [(13, 10), (15, 5)])
    def test_mismatched_index_refused(self, plain_reference, k, w):
        index = MinimizerIndex.build(plain_reference, k=k, w=w)
        with pytest.raises(ValueError) as refused:
            Mm2LikeMapper(plain_reference, index=index)
        message = str(refused.value)
        assert f"k={k}, w={w}" in message and "k=15, w=10" in message


class TestPairedEnd:
    def test_proper_pair(self, plain_reference, mapper, clean_pairs):
        pair = clean_pairs[0]
        result = mapper.map_pair(pair.read1.codes, pair.read2.codes,
                                 pair.name)
        rec1, rec2 = result.records
        assert (result.engine, result.stage) == ("mm2", "proper_pair")
        assert result.joint_score == rec1.score + rec2.score
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
        result = mapper.map_pair(pair.read1.codes, read2, "rescue")
        rec2 = result.record2
        assert result.stage == "proper_pair"
        assert abs(rec2.position - pair.read2.ref_start) <= 5
        assert mapper.stats.mate_rescues >= 1

    def test_map_pairs_batch_matches_map_pair(self, plain_reference,
                                              clean_pairs):
        serial = Mm2LikeMapper(plain_reference)
        batched = Mm2LikeMapper(plain_reference)
        items = [(p.read1.codes, p.read2.codes, p.name)
                 for p in clean_pairs[:5]]
        expected = [serial.map_pair(*item) for item in items]
        got = batched.map_pairs(items)
        for want, result in zip(expected, got):
            assert (want.record1.position, want.record2.position,
                    want.stage) == (result.record1.position,
                                    result.record2.position, result.stage)
        assert batched.stats.pairs_seen == serial.stats.pairs_seen == 5
        # Both mates of a pair count as seen, as in single-end runs.
        assert batched.stats.reads_seen == serial.stats.reads_seen == 10

    def test_stage_spans_recorded_under_a_trace(self, plain_reference,
                                                clean_pairs):
        from repro.obs import capture_trace

        mapper = Mm2LikeMapper(plain_reference)
        with capture_trace() as tracer:
            mapper.map_pairs([(pair.read1.codes, pair.read2.codes,
                               pair.name) for pair in clean_pairs[2:5]])
        seconds, spans = {}, {}
        for record in tracer.records:
            seconds[record.name] = (seconds.get(record.name, 0.0)
                                    + record.elapsed_s)
            spans[record.name] = spans.get(record.name, 0) + 1
        # Seeding, chaining and alignment are chunk-wide: one span each
        # for the chunk; pairing runs pair by pair.
        assert spans == {"mm2.seeding": 1, "mm2.chaining": 1,
                         "mm2.alignment": 1, "mm2.pairing": 3}
        assert all(value > 0 for value in seconds.values())
        assert not hasattr(mapper, "timer")


class TestChunkInvariance:
    """Seeding and chaining are chunk-wide; where the chunk boundaries
    fall must not show.  Hard input: GIAB-like pairs on a human-like
    (repeat-rich) reference, where chaining problems run from empty to
    hundreds of anchors and pairs get rescued."""

    @pytest.fixture(scope="class")
    def hard(self):
        from repro.genome import ErrorModel, ReadSimulator, \
            generate_reference
        from repro.genome.reference import RepeatProfile

        reference = generate_reference(
            np.random.default_rng(51), (50_000, 20_000),
            repeats=RepeatProfile.human_like())
        pairs = ReadSimulator(reference, error_model=ErrorModel.giab_like(),
                              seed=52).simulate_pairs(30)
        index = MinimizerIndex.build(reference)
        return reference, index, [(p.read1.codes, p.read2.codes, p.name)
                                  for p in pairs]

    @staticmethod
    def run(reference, index, items, chunk_size, record_signature):
        mapper = Mm2LikeMapper(reference, index=index)
        if chunk_size is None:
            mapped = [mapper.map_pair(*item) for item in items]
        else:
            mapped = [result
                      for start in range(0, len(items), chunk_size)
                      for result in mapper.map_pairs(
                          items[start:start + chunk_size])]
        return ([(record_signature(result.record1),
                  record_signature(result.record2), result.name,
                  result.engine, result.stage, result.joint_score)
                 for result in mapped],
                dataclasses.asdict(mapper.stats))

    @pytest.mark.parametrize("chunk_size", [1, 7, 30])
    def test_map_pairs_equals_a_map_pair_loop(self, hard, chunk_size,
                                              record_signature):
        expected, stats = self.run(*hard, None, record_signature)
        assert stats["mate_rescues"] > 0 and stats["anchors_total"] > 5_000
        assert stats["rescue_attempts"] > stats["mate_rescues"]
        assert stats["dp_cells_chaining"] > 0 < stats["dp_cells_alignment"]
        got, got_stats = self.run(*hard, chunk_size, record_signature)
        assert got == expected
        assert got_stats == stats

    def test_mixed_read_lengths_in_one_chunk(self, hard, record_signature):
        """150 bp pairs next to trimmed ones, one shorter than a
        minimizer window and one shorter than a k-mer."""
        reference, index, items = hard
        mixed = [(read1[:length1], read2[:length2], name)
                 for (read1, read2, name), (length1, length2) in zip(
                     items, [(150, 150), (100, 150), (150, 60), (20, 150),
                             (150, 9), (75, 75), (150, 150)])]
        expected, stats = self.run(reference, index, mixed, None,
                                   record_signature)
        for chunk_size in (1, 3, 7):
            got, got_stats = self.run(reference, index, mixed, chunk_size,
                                      record_signature)
            assert got == expected
            assert got_stats == stats

    def test_one_chaining_call_per_chunk(self, hard, monkeypatch):
        import repro.mapper.mm2 as mm2

        reference, index, items = hard
        problems = []
        real = mm2.chain_anchors

        def counting(anchors, **options):
            problems.append(anchors.problems)
            return real(anchors, **options)

        monkeypatch.setattr(mm2, "chain_anchors", counting)
        Mm2LikeMapper(reference, index=index).map_pairs(items[:7])
        assert problems == [4 * 7]  # reads x strands, one sweep

    def test_one_alignment_sweep_per_shape_and_budget_slice(
            self, hard, banded_calls, monkeypatch):
        """Chain alignment is chunk-wide: the problems of a ``map_pair``
        loop, one sweep per cut shape and budget slice.  Rescue runs in
        waves whose narrow bands go to the kernel in one call per wave,
        where the ungapped certificate resolves most and the rest share
        a sweep; a whole-window rescue (forced here by a 10-base mate)
        rides in its wave's second call, so no sweep is a lone 1-D
        one."""
        from repro.align.banded import STACK_BYTE_BUDGET
        from repro.align.dp import plane_bytes
        from repro.align.scoring import DEFAULT_SCHEME
        from repro.mapper.mm2 import BANDWIDTH, RESCUE_BAND

        rescue_calls, narrow_waves, handed = [], [], []
        real, real_align = Mm2LikeMapper._rescue, Mm2LikeMapper._align

        def marking(mapper, jobs):
            first, calls = len(banded_calls), len(handed)
            try:
                return real(mapper, jobs)
            finally:
                rescue_calls.extend(range(first, len(banded_calls)))
                narrow_waves.append(handed[calls])  # its first call

        def handing(mapper, problems):
            handed.append(sum(problem is not None for problem in problems))
            return real_align(mapper, problems)

        monkeypatch.setattr(Mm2LikeMapper, "_rescue", marking)
        monkeypatch.setattr(Mm2LikeMapper, "_align", handing)

        def tally():
            chains, rescues, lone = {}, {}, 0
            for number, (shape, size) in enumerate(banded_calls):
                if size is None:
                    lone += 1
                else:
                    stacks = rescues if number in rescue_calls else chains
                    stacks.setdefault(shape, []).append(size)
            waves = [count for count in narrow_waves if count]
            banded_calls.clear()
            rescue_calls.clear()
            narrow_waves.clear()
            return chains, rescues, lone, waves

        reference, index, items = hard
        items = items + [(items[0][0], np.random.default_rng(53).integers(
            0, 4, size=10, dtype=np.uint8), "short")]
        serial = Mm2LikeMapper(reference, index=index)
        for item in items:
            serial.map_pair(*item)
        pair_chains, pair_rescues, pair_lone, pair_waves = tally()
        chunked = Mm2LikeMapper(reference, index=index)
        chunked.map_pairs(items)
        chains, rescues, lone, waves = tally()
        band = (150, 150 + 2 * BANDWIDTH + 1, BANDWIDTH + 1, BANDWIDTH)
        assert lone == pair_lone == 0
        assert chunked.stats.rescue_whole_window == 1
        assert chunked.stats.rescue_attempts > chunked.stats.mate_rescues > 0
        # The loop's shapes, each distinct problem once: the short pair's
        # read 1 is pair 0's, so the chunk sweeps its chains once, and
        # charges them twice.
        assert chunked.stats == serial.stats
        for got, want in ((chains, pair_chains), (rescues, pair_rescues)):
            assert got.keys() == want.keys()
            assert all(sum(got[shape]) <= sum(want[shape]) for shape in got)
        assert sum(chains[band]) < sum(pair_chains[band])
        for (n, m, diagonal, bandwidth), sizes in chains.items():
            fit = STACK_BYTE_BUDGET // plane_bytes(n, m, diagonal,
                                                   bandwidth, DEFAULT_SCHEME)
            assert len(sizes) == -(-sum(sizes) // fit)
            assert max(sizes) <= fit
            assert min(sizes) > 1 or sum(sizes) == 1
        # Cut to their span, the chain bands of a read length share one
        # shape, and in int16 one sweep holds all of the chunk's.
        assert list(chains) == [band] and len(chains[band]) == 1
        assert sum(map(len, chains.values())) \
            < sum(map(len, pair_chains.values())) / 4
        # The narrow bands: one call per wave, shared by its rescues, and
        # what the certificate leaves of them at most one sweep per wave.
        narrow = (150, 150 + 2 * RESCUE_BAND + 1, RESCUE_BAND + 1,
                  RESCUE_BAND)
        assert len(waves) <= 2 < sum(waves) == sum(pair_waves)
        assert len(waves) < len(pair_waves)
        assert len(rescues[narrow]) <= len(waves)
