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


class TestOneFoldPerRun:
    """A finished run lands in the registry in one
    ``MetricsRegistry.fold``: ``engine.<name>.<field>`` is the sum of
    the runs' stats, ``engine.<name>.runs`` their count, and no stats
    field costs a ``Counter.inc`` of its own."""

    @staticmethod
    def _runs(mapper, sample_pairs):
        pairs = _pair_items(sample_pairs)
        reads = [(codes, name) for codes, _codes2, name in pairs]
        return [("genpair", pairs[:7]), ("genpair", pairs[7:40]),
                ("genpair", []), ("mm2", pairs[40:45]),
                ("mm2", pairs[45:46]), ("longread", reads[:3]),
                ("longread", reads[3:12])]

    def test_engine_counters_are_the_summed_runs(self, mapper, sample_pairs,
                                                 counter_deltas):
        from repro.api.engines import stats_dict

        registry = get_registry()
        before = registry.snapshot()
        runs, summed = {}, {}
        for engine, items in self._runs(mapper, sample_pairs):
            mapper.map(items, engine=engine)
            runs[engine] = runs.get(engine, 0) + 1
            total = summed.setdefault(engine, {})
            for field, value in stats_dict(mapper.last_stats).items():
                total[field] = total.get(field, 0) + value
        deltas = counter_deltas(before, registry.snapshot(), "engine.")
        for engine, fields in summed.items():
            assert deltas[f"engine.{engine}.runs"] == runs[engine]
            for field, value in fields.items():
                assert deltas.get(f"engine.{engine}.{field}", 0) == value, \
                    (engine, field)
            assert set(registry.snapshot()["counters"]) >= {
                f"engine.{engine}.{field}" for field in fields}

    def test_stats_fields_cost_no_increment_of_their_own(
            self, mapper, sample_pairs, monkeypatch):
        from repro.obs import Counter, MetricsRegistry

        increments, folds = [], []
        real_inc, real_fold = Counter.inc, MetricsRegistry.fold

        def counting_inc(self, amount=1):
            increments.append(amount)
            real_inc(self, amount)

        def recording_fold(self, counts=(), observations=()):
            counts, observations = list(counts), list(observations)
            folds.append([name for name, _amount in counts])
            real_fold(self, counts, observations)

        monkeypatch.setattr(Counter, "inc", counting_inc)
        monkeypatch.setattr(MetricsRegistry, "fold", recording_fold)
        for engine, items in self._runs(mapper, sample_pairs):
            del increments[:], folds[:]
            mapper.map(items, engine=engine)
            assert increments == [], engine
            run_folds = [names for names in folds
                         if f"engine.{engine}.runs" in names]
            assert len(run_folds) == 1, engine
            assert {f"engine.{engine}.{field}" for field in
                    mapper.engine_stats()[engine]} <= set(run_folds[0])
