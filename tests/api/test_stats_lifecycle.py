"""Cumulative stats lifecycle across interleaved multi-engine runs,
and the per-run engine metric folds."""

import pytest

from repro.api import Mapper
from repro.index import save_index
from repro.obs import get_registry


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, small_index):
    path = tmp_path_factory.mktemp("lifecycle") / "lifecycle.rpix"
    save_index(path, small_index)
    return path


@pytest.fixture()
def mapper(index_path):
    with Mapper.from_index(index_path, full_fallback=False) as instance:
        yield instance


def _pair_items(pairs):
    return [(p.read1.codes, p.read2.codes, p.name) for p in pairs]


def _counter_deltas(before, after, prefixes):
    deltas = {}
    for name, value in after["counters"].items():
        if name.startswith(prefixes):
            delta = value - before["counters"].get(name, 0)
            if delta:
                deltas[name] = delta
    return deltas


class TestInterleavedRuns:
    def test_totals_accumulate_per_engine(self, mapper, sample_pairs):
        items = _pair_items(sample_pairs)
        mapper.map(items[:30], engine="genpair")
        mapper.map(items[30:50], engine="mm2")
        mapper.map(items[50:90], engine="genpair")
        assert mapper.last_engine == "genpair"
        assert mapper.last_stats.pairs_total == 40
        # .stats accumulates genpair runs only: 30 + 40.
        assert mapper.stats.pairs_total == 70
        per_engine = mapper.engine_stats()
        assert per_engine["genpair"]["pairs_total"] == 70
        assert per_engine["mm2"]["pairs_seen"] == 20

    def test_longread_joins_the_accumulators(self, mapper, simulator):
        reads = [(pair.read1.codes, pair.name)
                 for pair in simulator.simulate_pairs(10)]
        mapper.map(reads, engine="longread")
        assert mapper.last_engine == "longread"
        assert mapper.engine_stats()["longread"]["reads_total"] == 10

    def test_reset_stats_rewinds_everything(self, mapper, sample_pairs):
        items = _pair_items(sample_pairs)
        mapper.map(items[:20], engine="genpair")
        mapper.map(items[20:30], engine="mm2")
        mapper.reset_stats()
        assert mapper.last_engine is None
        assert mapper.stats.pairs_total == 0
        per_engine = mapper.engine_stats()
        assert per_engine["genpair"]["pairs_total"] == 0
        assert per_engine["mm2"]["pairs_seen"] == 0
        # Accumulation restarts cleanly after the rewind.
        mapper.map(items[:15], engine="genpair")
        assert mapper.stats.pairs_total == 15


class TestRunMetrics:
    def test_each_run_folds_engine_counters(self, mapper, sample_pairs):
        registry = get_registry()
        before = registry.snapshot()
        mapper.map(_pair_items(sample_pairs[:25]), engine="genpair")
        after = registry.snapshot()
        deltas = _counter_deltas(before, after, "engine.genpair.")
        assert deltas["engine.genpair.runs"] == 1
        assert deltas["engine.genpair.pairs_total"] == 25
        run_hist = after["histograms"]["engine.genpair.run_s"]
        assert run_hist["count"] > before["histograms"].get(
            "engine.genpair.run_s", {}).get("count", 0)
