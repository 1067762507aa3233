"""Edge-case tests for the GenPair pipeline."""

import numpy as np
import pytest

from repro.core import (STAGE_DP_CANDIDATE, STAGE_LIGHT, GenPairConfig,
                        GenPairPipeline, SeedMap)
from repro.core.light_align import LightAligner
from repro.core.pipeline import MAX_JOINT_CANDIDATES
from repro.genome import (ReferenceGenome, encode, random_sequence,
                          reverse_complement)


class TestWindowClamping:
    def test_read_at_chromosome_start(self, plain_reference,
                                      plain_seedmap):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        read1 = plain_reference.fetch("chr1", 0, 150)
        read2 = reverse_complement(plain_reference.fetch("chr1", 200,
                                                         350))
        result = pipeline.map_pair(read1, read2, "edge0")
        assert result.stage == STAGE_LIGHT
        assert result.record1.position == 0

    def test_read_at_chromosome_end(self, plain_reference,
                                    plain_seedmap):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        end = plain_reference.length("chr1")
        read1 = plain_reference.fetch("chr1", end - 350, end - 200)
        read2 = reverse_complement(plain_reference.fetch("chr1",
                                                         end - 150, end))
        result = pipeline.map_pair(read1, read2, "edgeN")
        assert result.mapped
        assert result.record2.position == end - 150


class TestLightStackClamping:
    """A span cut at a chromosome end sends only its own row down the
    sliced path; the uncut rows stay one strided block."""

    def test_one_clamped_row_leaves_the_others_stacked(
            self, plain_reference, plain_seedmap, monkeypatch):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        rng = np.random.default_rng(5)
        end = plain_reference.length("chr1")
        uncut = rng.integers(100, end - 300, size=12).tolist()
        candidates = np.array(uncut[:6] + [2] + uncut[6:], dtype=np.int64)
        roles = []
        for number, start in enumerate(candidates.tolist()):
            read = plain_reference.fetch("chr1", start, start + 150).copy()
            if number % 3 == 1:  # a mismatch
                read[40] = (read[40] + 1) % 4
            elif number % 3 == 2:  # a 2-base deletion
                read = np.concatenate((
                    plain_reference.fetch("chr1", start, start + 70),
                    plain_reference.fetch("chr1", start + 72,
                                          start + 152)))
            roles.append(read)
        rows = np.arange(len(roles))
        lengths = np.full(len(roles), 150, dtype=np.int64)
        alone = [pipeline._light_stack(roles, rows[[k]], lengths[[k]],
                                       candidates[[k]])[0]
                 for k in rows.tolist()]
        calls, frames = [], []
        align, align_frames = LightAligner.align, LightAligner._align_frames

        def spy_align(self, reads, windows, offsets):
            calls.append((isinstance(windows, np.ndarray), len(offsets)))
            return align(self, reads, windows, offsets)

        def spy_frames(self, reads, *args):
            frames.append(len(reads))
            return align_frames(self, reads, *args)

        monkeypatch.setattr(LightAligner, "align", spy_align)
        monkeypatch.setattr(LightAligner, "_align_frames", spy_frames)
        stacked = pipeline._light_stack(roles, rows, lengths, candidates)
        assert all(hit is not None for hit in stacked)
        assert stacked == alone
        assert [hit[0].cigar.count("D") for hit in stacked].count(2) == 4
        # The 12 uncut rows in one strided block, the cut one alone.
        assert calls == [(True, 12), (False, 1)]
        assert frames == [12, 1]


class TestCandidateCap:
    def test_max_joint_candidates_bounds_attempts(self):
        """A degenerate tandem-repeat genome floods the filter with
        joint candidates (60 here); the cap must bound light attempts."""
        unit = random_sequence(np.random.default_rng(3), 400)
        genome = ReferenceGenome({"rep": np.tile(unit, 60)})
        seedmap = SeedMap.build(genome, filter_threshold=None)
        config = GenPairConfig(filter_threshold=None)
        pipeline = GenPairPipeline(genome, seedmap=seedmap, config=config)
        read1 = genome.fetch("rep", 800, 950).copy()
        # Three mismatches (score 270 < 276): light alignment fails at
        # every candidate, so every capped one is tried.
        read1[[10, 30, 60]] = (read1[[10, 30, 60]] + 1) % 4
        read2 = reverse_complement(genome.fetch("rep", 1000, 1150))
        result = pipeline.map_pair(read1, read2, "rep")
        assert result.stage == STAGE_DP_CANDIDATE
        # 16 candidates x 2 reads, in the one orientation filtered.
        assert MAX_JOINT_CANDIDATES == 16
        assert pipeline.stats.light_attempts == 2 * MAX_JOINT_CANDIDATES

    def test_repeat_read_maps_to_some_copy(self):
        unit = random_sequence(np.random.default_rng(4), 500)
        genome = ReferenceGenome({"rep": np.tile(unit, 20)})
        seedmap = SeedMap.build(genome, filter_threshold=None)
        pipeline = GenPairPipeline(genome, seedmap=seedmap,
                                   config=GenPairConfig(
                                       filter_threshold=None))
        read1 = genome.fetch("rep", 1000, 1150)
        read2 = reverse_complement(genome.fetch("rep", 1200, 1350))
        result = pipeline.map_pair(read1, read2, "copy")
        assert result.stage == STAGE_LIGHT
        # Any copy is a perfect placement; gap must be preserved.
        gap = result.record2.position - result.record1.position
        assert gap == 200


class TestLightReplay:
    """A chunk's joint candidates are light-aligned in one call, then each
    pair replays the wave rule in candidate order: a strictly better
    score replaces the best, and the pair stops at its perfect score.
    Each pair has its own chromosome of 16 copies of a unit, one joint
    candidate per copy (the next copy is past Δ); a copy's edits in
    read 1's middle seed set that candidate's score and leave it seeded."""

    UNIT = 1000
    FLANK = 500
    READ1, READ2 = 100, 350  # read starts within a unit
    #: name -> (mismatches of read 1 at each copy, the winning copy, the
    #: attempts up to the replay's stop); 3 mismatches fail light.
    PLANS = {
        "first": ([0] + [1] * 15, 0, 1),
        "middle": ([1] * 7 + [0] + [2] * 8, 7, 8),
        "last": ([2] * 15 + [0], 15, 16),
        "never": ([3, 3, 3, 2, 2, 1] + [2] * 10, 5, 16),
        "tie": ([2] * 4 + [1] + [2] * 6 + [1] + [2] * 4, 4, 16),
    }

    @pytest.fixture(scope="class")
    def world(self):
        rng = np.random.default_rng(47)
        chromosomes, items = {}, []
        for name, (edits, _winner, _stop) in self.PLANS.items():
            unit = random_sequence(rng, self.UNIT)
            copies = np.tile(unit, MAX_JOINT_CANDIDATES)
            for copy, count in enumerate(edits):
                where = copy * self.UNIT + self.READ1 + 70 \
                    + 10 * np.arange(count)
                copies[where] = (copies[where] + 1) % 4
            chromosomes[name] = np.concatenate((
                random_sequence(rng, self.FLANK), copies,
                random_sequence(rng, self.FLANK)))
            read1 = unit[self.READ1:self.READ1 + 150]
            read2 = reverse_complement(unit[self.READ2:self.READ2 + 150])
            items.append((read1, read2, name))
        genome = ReferenceGenome(chromosomes)
        seedmap = SeedMap.build(genome, filter_threshold=None)
        return genome, seedmap, items

    def pipeline(self, world):
        genome, seedmap, _items = world
        return GenPairPipeline(genome, seedmap=seedmap,
                               config=GenPairConfig(filter_threshold=None))

    def test_one_chunk_replays_the_waves(self, world, result_signature):
        items = world[2]
        alone = self.pipeline(world)
        want = []
        for item, (edits, winner, stop) in zip(items,
                                               self.PLANS.values()):
            before = alone.stats.light_attempts
            result = alone.map_pairs([item], chunk_size=1)[0]
            assert result.stage == STAGE_LIGHT
            assert result.record1.position == self.FLANK \
                + winner * self.UNIT + self.READ1
            assert result.joint_score == 600 - 10 * edits[winner]
            assert alone.stats.light_attempts - before == 2 * stop
            want.append(result_signature(result))
        chunk = self.pipeline(world)
        got = chunk.map_pairs(items, chunk_size=len(items))
        assert list(map(result_signature, got)) == want
        assert chunk.stats == alone.stats


class TestCandidateDpCells:
    def test_read_2_is_charged_only_where_read_1_survived(self):
        """Two copies of a fragment: read 1's last 100 bases are random
        at copy A (its DP score is negative) and carry 3 mismatches at
        copy B (light alignment fails at both).  One call sweeps read 2
        at both copies; ``dp_cells_candidate`` charges read 1 twice and
        read 2 once, 150 x 33 cells each."""
        rng = np.random.default_rng(49)
        unit = random_sequence(rng, 1000)
        copy_a, copy_b = unit.copy(), unit.copy()
        copy_a[150:250] = random_sequence(rng, 100)
        copy_b[[160, 170, 180]] = (copy_b[[160, 170, 180]] + 1) % 4
        genome = ReferenceGenome({"two": np.concatenate((
            random_sequence(rng, 500), copy_a, copy_b,
            random_sequence(rng, 500)))})
        pipeline = GenPairPipeline(
            genome, seedmap=SeedMap.build(genome, filter_threshold=None),
            config=GenPairConfig(filter_threshold=None))
        read1 = unit[100:250]
        read2 = reverse_complement(unit[350:500])
        result = pipeline.map_pair(read1, read2, "two")
        assert result.stage == STAGE_DP_CANDIDATE
        assert result.record1.position == 500 + 1000 + 100
        assert pipeline.stats.light_attempts == 4
        assert pipeline.stats.dp_cells_candidate == 3 * 150 * 33


class TestCounters:
    def test_exact_pairs_counter(self, plain_reference, plain_seedmap,
                                 clean_pairs):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        pipeline.map_pairs(clean_pairs[:10])
        assert pipeline.stats.exact_pairs >= 8

    def test_short_reads_fall_back(self, plain_reference, plain_seedmap):
        """Reads shorter than one seed can never be seeded."""
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        short = plain_reference.fetch("chr1", 100, 140)
        result = pipeline.map_pair(short, short, "short")
        assert not result.mapped
        assert pipeline.stats.seedmap_fallback == 1

    def test_methods_tagged(self, plain_reference, plain_seedmap,
                            clean_pairs):
        from repro.genome.sam import METHOD_EXACT, METHOD_LIGHT
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        pair = clean_pairs[7]
        exact = pipeline.map_pair(pair.read1.codes, pair.read2.codes,
                                  "exact")
        assert exact.record1.method == METHOD_EXACT
        read1 = pair.read1.codes.copy()
        read1[70] = (read1[70] + 1) % 4
        light = pipeline.map_pair(read1, pair.read2.codes, "light")
        assert light.record1.method == METHOD_LIGHT


class TestCustomThreshold:
    def test_lower_threshold_accepts_more_edits(self, plain_reference,
                                                plain_seedmap,
                                                clean_pairs):
        pair = clean_pairs[8]
        read1 = pair.read1.codes.copy()
        # 3 mismatches -> score 270 < 276; all inside the first seed so
        # the middle/last seeds still place the read.
        for pos in (5, 20, 35):
            read1[pos] = (read1[pos] + 1) % 4
        strict = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        loose = GenPairPipeline(plain_reference, seedmap=plain_seedmap,
                                config=GenPairConfig(score_threshold=260))
        assert strict.map_pair(read1, pair.read2.codes,
                               "s").stage != STAGE_LIGHT
        assert loose.map_pair(read1, pair.read2.codes,
                              "l").stage == STAGE_LIGHT


class TestWindowErrors:
    """Only an out-of-range coordinate means "no window here"."""

    def test_reference_error_is_no_window(self, plain_reference,
                                          plain_seedmap):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)
        assert pipeline._window(10 ** 9, 150) is None

    def test_other_errors_propagate(self, plain_reference, plain_seedmap,
                                    monkeypatch):
        pipeline = GenPairPipeline(plain_reference, seedmap=plain_seedmap)

        def broken(*args, **kwargs):
            raise RuntimeError("coordinate table corrupt")

        monkeypatch.setattr(pipeline.reference, "window", broken)
        with pytest.raises(RuntimeError, match="corrupt"):
            pipeline._window(1000, 150)
