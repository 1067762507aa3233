"""Every pair down the ``rf`` path: a reverse fragment maps as its mirror.

GenPair tries each pair in the ``fr`` orientation first and resolves the
``rf`` roles only for the pairs ``fr`` left without a joint candidate.
The simulator draws FR fragments only, so swapping read 1 and read 2 of a
clean set makes every pair a reverse fragment: every pair takes the
second probe.  Each read must then get the record it got in the original
run — chromosome, position, strand, CIGAR, TLEN, AS, XM and SEQ — as the
other mate.
"""

import numpy as np
import pytest

from repro.core import GenPairPipeline, SeedMap
from repro.genome import (ErrorModel, ReadSimulator, decode,
                          generate_reference)

PAIRS = 3000


@pytest.fixture(scope="module")
def runs():
    reference = generate_reference(np.random.default_rng(23),
                                   (40_000, 30_000), repeats=None)
    pairs = ReadSimulator(reference, error_model=ErrorModel.perfect(),
                          seed=29).simulate_pairs(PAIRS)
    pipeline = GenPairPipeline(reference, seedmap=SeedMap.build(reference))
    forward = pipeline.map_pairs(
        [(pair.read1.codes, pair.read2.codes, pair.name) for pair in pairs])
    swapped = pipeline.map_pairs(
        [(pair.read2.codes, pair.read1.codes, pair.name) for pair in pairs])
    return forward, swapped, pipeline.stats


def placed(record):
    return (record.chromosome, record.position, record.strand,
            str(record.cigar), record.template_length, record.score,
            record.method, decode(record.read_codes))


def test_every_swapped_pair_resolves_as_rf(runs):
    forward, swapped, stats = runs
    assert [result.orientation for result in forward] == ["fr"] * PAIRS
    assert [result.orientation for result in swapped] == ["rf"] * PAIRS
    assert stats.pairs_total == 2 * PAIRS
    assert stats.light_mapped == 2 * PAIRS


def test_each_read_keeps_its_record_as_the_other_mate(runs):
    forward, swapped, _stats = runs
    for was, now in zip(forward, swapped):
        assert (now.records[0].query_name, now.records[0].mate) \
            == (f"{was.name}/1", 1)
        assert (now.records[1].query_name, now.records[1].mate) \
            == (f"{was.name}/2", 2)
        assert placed(now.records[0]) == placed(was.records[1])
        assert placed(now.records[1]) == placed(was.records[0])
        assert now.records[0].proper_pair and now.records[1].proper_pair
        assert now.joint_score == was.joint_score
