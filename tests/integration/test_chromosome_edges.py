"""Reads at the edges of every chromosome, through each engine's own
window path.

Seed hits live in one linear coordinate space; an indel near a read's
start moves its *implied* start a few bases, which at a chromosome edge
is across the boundary.  :meth:`repro.genome.ReferenceGenome.window` is
the one place that decides which chromosome such a start belongs to, and
this matrix is what holds every engine to it: every chromosome x {first,
last 150 bp} x both strands x {exact, 3-base insertion, 3-base deletion
at read offset 4}.  GenPair runs without the full-DP fallback and mm2
without mate rescue, so nothing but the engine's own window places the
edge read.
"""

import numpy as np
import pytest

from repro.core import (STAGE_DP_CANDIDATE, STAGE_LIGHT, GenPairPipeline,
                        LongReadMapper, SeedMap)
from repro.genome import generate_reference, reverse_complement
from repro.mapper import MinimizerIndex, Mm2LikeMapper

READ = 150
LONG = 1500
#: Reference bases a read of READ bases spans, by edit.
SPAN = {"exact": 0, "insertion": -3, "deletion": 3}


@pytest.fixture(scope="module")
def world():
    reference = generate_reference(np.random.default_rng(23),
                                   (4000, 3000, 5000), repeats=None)
    return (reference, SeedMap.build(reference),
            MinimizerIndex.build(reference))


def edited(template: np.ndarray, edit: str) -> np.ndarray:
    """``template`` with the edit at read offset 4."""
    if edit == "insertion":
        return np.concatenate([template[:4], (template[4:7] + 1) % 4,
                               template[4:]]).astype(np.uint8)
    if edit == "deletion":
        return np.concatenate([template[:4], template[7:]])
    return template


def edge_read(reference, chromosome: str, edge: str, strand: str,
              edit: str, length: int = READ):
    """``(read, leftmost reference position)`` of a ``length``-base read
    covering the chromosome's first or last bases on ``strand``."""
    codes = reference.chromosomes[chromosome]
    span = length + SPAN[edit]
    start = 0 if edge == "first" else len(codes) - span
    template = codes[start:start + span]
    if strand == "-":
        template = reverse_complement(template)
    return edited(template, edit), start


def edge_pair(reference, chromosome: str, edge: str, strand: str,
              edit: str):
    """The edge read as read 1 and an error-free mate making a proper
    pair with it: 300 bp further in where the edge read's strand faces
    inward, the same 150 bp on the other strand where it faces out (a
    fragment no longer than its reads)."""
    read1, position = edge_read(reference, chromosome, edge, strand, edit)
    codes = reference.chromosomes[chromosome]
    if (edge, strand) == ("first", "+"):
        mate = reverse_complement(codes[300:300 + READ])
    elif (edge, strand) == ("last", "-"):
        mate = codes[len(codes) - 300 - READ:len(codes) - 300]
    elif edge == "first":
        mate = codes[:READ]
    else:
        mate = reverse_complement(codes[len(codes) - READ:])
    return read1, mate, position


CELLS = [(chromosome, edge, strand, edit)
         for chromosome in ("chr1", "chr2", "chr3")
         for edge in ("first", "last") for strand in "+-"
         for edit in SPAN]


@pytest.mark.parametrize("chromosome,edge,strand,edit", CELLS)
class TestPairedEngines:
    def test_genpair_places_it_without_fallback(self, world, chromosome,
                                                edge, strand, edit):
        reference, seedmap, _index = world
        pipeline = GenPairPipeline(reference, seedmap=seedmap)
        read1, read2, position = edge_pair(reference, chromosome, edge,
                                           strand, edit)
        result = pipeline.map_pair(read1, read2, "edge")
        assert result.stage in (STAGE_LIGHT, STAGE_DP_CANDIDATE)
        record = result.record1
        assert (record.chromosome, record.strand) == (chromosome, strand)
        assert abs(record.position - position) <= 5
        assert result.record2.chromosome == chromosome

    def test_mm2_places_it_without_rescue(self, world, chromosome, edge,
                                          strand, edit):
        reference, _seedmap, index = world
        mapper = Mm2LikeMapper(reference, index=index)
        read1, read2, position = edge_pair(reference, chromosome, edge,
                                           strand, edit)
        result = mapper.map_pair(read1, read2, "edge")
        record = result.record1
        assert mapper.stats.mate_rescues == 0
        assert record.mapped and result.record2.mapped
        assert (record.chromosome, record.strand) == (chromosome, strand)
        assert abs(record.position - position) <= 5
        assert result.record2.chromosome == chromosome


@pytest.mark.parametrize("chromosome,edge,edit", [
    (chromosome, edge, edit) for chromosome, edge, strand, edit in CELLS
    if strand == "+"])
def test_longread_places_it(world, chromosome, edge, edit):
    reference, seedmap, _index = world
    mapper = LongReadMapper(reference, seedmap=seedmap)
    codes, position = edge_read(reference, chromosome, edge, "+", edit,
                                length=LONG)
    result = mapper.map_read(codes, "edge")
    record = result.record1
    assert result.stage == "mapped"
    assert record.chromosome == chromosome
    assert abs(record.position - position) <= 5
