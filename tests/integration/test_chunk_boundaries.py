"""Chunk boundaries never show, in any engine or output format.

The set is CI's chunk-boundary smoke set (``simulate --pairs 300
--chromosomes 25000,25000 --seed 21``, mapped from its index), on which
24 pairs reach GenPair's full fallback: each chunk hands its own
residue to the fallback mapper in one call, and the mm2 engine seeds,
chains and aligns a whole chunk at once, so where the boundaries fall
decides what shares a call.  Every batch size must give the chunk-256
run's SAM, PAF and JSONL lines and per-run stats exactly.

A second, small set on the same index holds the edge shapes of
``tests/edge_pairs.py`` (an ``rf`` pair, an ``N`` in a seed window, a
read shorter than a seed, a pair without a seed hit, reads of two
lengths in one chunk): at chunk size 1 each is a chunk of its own,
where a step whose input is empty could be skipped.
"""

import pytest

from edge_pairs import edge_pairs
from repro.api import Mapper
from repro.cli import main
from repro.genome import iter_pairs

FORMATS = ("sam", "paf", "jsonl")
BASELINE = 256


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("chunks") / "stream")
    assert main(["--quiet", "simulate", "--out", prefix, "--pairs", "300",
                 "--chromosomes", "25000,25000", "--seed", "21"]) == 0
    assert main(["--quiet", "index", "build", "--reference",
                 prefix + "_ref.fa", "--out", prefix + ".rpix"]) == 0
    return prefix


def mapped(world, engine, batch_size):
    """One run from the index: every format's lines and the stats."""
    with Mapper.from_index(world + ".rpix", engine=engine,
                           batch_size=batch_size) as mapper:
        results = list(mapper.map_file(world + "_1.fq", world + "_2.fq"))
        lines = {fmt: list(mapper.lines(results, format=fmt))
                 for fmt in FORMATS}
        return lines, mapper.last_stats


@pytest.fixture(scope="module")
def baseline(world):
    return {engine: mapped(world, engine, BASELINE)
            for engine in ("genpair", "mm2")}


def test_the_set_reaches_the_full_fallback(baseline):
    stats = baseline["genpair"][1]
    assert stats.pairs_total == 300 and stats.unmapped == 0
    assert stats.seedmap_fallback + stats.filter_fallback \
        + stats.residual_fallback == 24  # CI greps "full fallback 8.0%"
    assert stats.dp_cells_full > 0


@pytest.mark.parametrize("batch_size", [1, 7, 32])
@pytest.mark.parametrize("engine", ["genpair", "mm2"])
def test_batch_size_never_changes_output(world, baseline, engine,
                                         batch_size):
    lines, stats = mapped(world, engine, batch_size)
    want_lines, want_stats = baseline[engine]
    for fmt in FORMATS:
        assert lines[fmt] == want_lines[fmt], fmt
    assert stats == want_stats


@pytest.fixture(scope="module")
def edges(world):
    return edge_pairs(list(iter_pairs(world + "_1.fq", world + "_2.fq")))


def mapped_edges(world, edges, engine, batch_size):
    """The edge set mapped in memory: every format's lines, the stats and
    the results."""
    with Mapper.from_index(world + ".rpix", engine=engine,
                           batch_size=batch_size) as mapper:
        results = mapper.map(edges)
        lines = {fmt: list(mapper.lines(results, format=fmt))
                 for fmt in FORMATS}
        return lines, mapper.last_stats, results


@pytest.fixture(scope="module")
def edge_baseline(world, edges):
    return {engine: mapped_edges(world, edges, engine, BASELINE)
            for engine in ("genpair", "mm2")}


def test_the_edge_set_takes_its_branches(edge_baseline):
    _lines, stats, results = edge_baseline["genpair"]
    by_name = {result.name: result for result in results}
    assert by_name["rf"].orientation == "rf"
    assert by_name["no_seed_hit"].stage in ("full_dp", "unmapped")
    assert stats.seedmap_fallback >= 1
    assert stats.pairs_total == len(results) == 9


@pytest.mark.parametrize("batch_size", [1, 7, 32])
@pytest.mark.parametrize("engine", ["genpair", "mm2"])
def test_edge_shapes_never_change_with_the_batch(world, edges,
                                                 edge_baseline, engine,
                                                 batch_size):
    lines, stats, _results = mapped_edges(world, edges, engine, batch_size)
    want_lines, want_stats, _ = edge_baseline[engine]
    for fmt in FORMATS:
        assert lines[fmt] == want_lines[fmt], fmt
    assert stats == want_stats
