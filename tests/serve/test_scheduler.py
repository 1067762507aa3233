"""Scheduler edge cases, driven deterministically through run_once().

No threads here: tasks are submitted and the scheduler is stepped by
hand, so batch composition, deadline handling, and abandonment are
asserted exactly — the threaded end-to-end behaviour rides on the
same code paths and is stressed in test_serve_tier.py.
"""

import time

import pytest

from repro.core.pipeline import PipelineStats
from repro.serve.protocol import (E_BUSY, E_SHUTTING_DOWN, E_TIMEOUT,
                                  error_reply)
from repro.serve.scheduler import MapTask, Scheduler, ServeSettings
from repro.util.sync import reset_order_graph, set_sanitize


@pytest.fixture(autouse=True)
def sanitized():
    """Every scheduler test runs under the lock sanitizer, so the
    named-lock discipline is exercised, not just trusted."""
    previous = set_sanitize(True)
    reset_order_graph()
    yield
    set_sanitize(previous)
    reset_order_graph()


class StubMapper:
    """A mapper facade standing in for the real thing: deterministic
    output per (engine, item), a recordable run log, and an optional
    per-run delay to let deadlines expire mid-execution."""

    def __init__(self, delay_s: float = 0.0):
        self.runs = []
        self.delay_s = delay_s
        self.last_stats = PipelineStats()
        self.closed = False

    def map(self, items, engine=None):
        if self.delay_s:
            time.sleep(self.delay_s)
        items = list(items)
        self.runs.append((engine, items))
        stats = PipelineStats()
        stats.pairs_total = len(items)
        self.last_stats = stats
        return [f"{engine}:{item}" for item in items]

    def lines(self, results, format=None, header=False):
        prefix = ["#header"] if header else []
        return prefix + [f"{format}|{res}" for res in results]

    def map_file(self, reads1, reads2, engine=None):
        return self.map([reads1, reads2], engine=engine)

    def write(self, results, out, format=None):
        return len(list(results))

    def close(self):
        self.closed = True


def make_task(items=("x",), engine="genpair", format="sam",
              op="map", trace=False, timeout_s=None, header=False):
    payload = list(items) if op == "map" \
        else ("r1.fq", "r2.fq", "out.sam")
    return MapTask(op, engine, format, payload,
                   len(items) if op == "map" else 0,
                   header=header, trace=trace, timeout_s=timeout_s)


class TestCoalescing:
    def test_same_key_requests_share_one_engine_run(self):
        mapper = StubMapper()
        scheduler = Scheduler(mapper)
        first = make_task(["a1", "a2"])
        second = make_task(["b1"])
        assert scheduler.submit(first) and scheduler.submit(second)
        assert scheduler.run_once() == 2
        # One merged engine run, demultiplexed per request.
        assert mapper.runs == [("genpair", ["a1", "a2", "b1"])]
        reply1, reply2 = first.wait(1), second.wait(1)
        assert reply1["lines"] == ["sam|genpair:a1", "sam|genpair:a2"]
        assert reply2["lines"] == ["sam|genpair:b1"]
        assert reply1["coalesced"] == reply2["coalesced"] == 2
        totals = scheduler.totals()
        assert totals["batches"] == 1
        assert totals["coalesced_batches"] == 1
        assert totals["coalesced_requests"] == 2
        assert totals["max_batch_requests"] == 2

    def test_different_engine_or_format_never_merges(self):
        mapper = StubMapper()
        scheduler = Scheduler(mapper)
        tasks = [make_task(["a"], engine="genpair", format="sam"),
                 make_task(["b"], engine="genpair", format="paf"),
                 make_task(["c"], engine="mm2", format="paf")]
        for task in tasks:
            assert scheduler.submit(task)
        sizes = [scheduler.run_once() for _ in range(3)]
        assert sizes == [1, 1, 1]
        assert mapper.runs == [("genpair", ["a"]), ("genpair", ["b"]),
                               ("mm2", ["c"])]
        assert tasks[0].wait(1)["lines"] == ["sam|genpair:a"]
        assert tasks[1].wait(1)["lines"] == ["paf|genpair:b"]
        assert tasks[2].wait(1)["lines"] == ["paf|mm2:c"]
        assert scheduler.totals()["coalesced_batches"] == 0

    def test_header_stays_per_request_within_a_batch(self):
        mapper = StubMapper()
        scheduler = Scheduler(mapper)
        with_header = make_task(["a"], header=True)
        without = make_task(["b"])
        assert scheduler.submit(with_header)
        assert scheduler.submit(without)
        assert scheduler.run_once() == 2
        assert with_header.wait(1)["lines"][0] == "#header"
        assert without.wait(1)["lines"] == ["sam|genpair:b"]

    def test_traced_and_map_file_requests_run_solo(self):
        mapper = StubMapper()
        scheduler = Scheduler(mapper)
        traced = make_task(["a"], trace=True)
        plain = make_task(["b"])
        assert traced.coalesce_key is None
        assert make_task(op="map_file").coalesce_key is None
        assert scheduler.submit(traced) and scheduler.submit(plain)
        assert scheduler.run_once() == 1  # the traced one, alone
        assert scheduler.run_once() == 1
        assert len(mapper.runs) == 2

    def test_coalesce_requests_bounds_the_batch(self):
        mapper = StubMapper()
        scheduler = Scheduler(
            mapper, ServeSettings(coalesce_requests=2))
        tasks = [make_task([f"t{i}"]) for i in range(3)]
        for task in tasks:
            assert scheduler.submit(task)
        assert scheduler.run_once() == 2
        assert scheduler.run_once() == 1
        assert [len(items) for _, items in mapper.runs] == [2, 1]


class TestDeadlines:
    def test_deadline_expired_while_queued_skips_the_work(self):
        mapper = StubMapper()
        scheduler = Scheduler(mapper)
        task = make_task(["a"], timeout_s=0.01)
        assert scheduler.submit(task)
        time.sleep(0.03)
        assert scheduler.run_once() == 1
        reply = task.wait(1)
        assert reply["ok"] is False
        assert reply["error_code"] == E_TIMEOUT
        assert reply["stage"] == "queued"
        assert mapper.runs == []  # never touched the engine
        assert scheduler.totals()["timeouts"] == 1

    def test_deadline_expired_while_executing_discards_result(self):
        mapper = StubMapper(delay_s=0.08)
        scheduler = Scheduler(mapper)
        task = make_task(["a"], timeout_s=0.02)
        assert scheduler.submit(task)
        assert scheduler.run_once() == 1
        reply = task.wait(1)
        assert reply["ok"] is False
        assert reply["error_code"] == E_TIMEOUT
        assert reply["stage"] == "executing"
        assert len(mapper.runs) == 1  # the work ran; its reply didn't
        assert scheduler.totals()["timeouts"] == 1

    def test_no_deadline_by_default(self):
        task = make_task(["a"])
        assert task.deadline is None
        assert task.remaining_s() is None
        assert not task.expired()


class TestAbandonment:
    def test_abandoned_task_never_wedges_the_queue(self):
        mapper = StubMapper()
        scheduler = Scheduler(mapper)
        doomed = make_task(["a"])
        assert scheduler.submit(doomed)
        assert doomed.abandon() == "queued"  # client went away
        assert scheduler.run_once() == 1
        assert scheduler.totals()["discarded"] == 1
        assert mapper.runs == []  # abandoned before execution: skipped
        follower = make_task(["b"])
        assert scheduler.submit(follower)
        assert scheduler.run_once() == 1
        assert follower.wait(1)["lines"] == ["sam|genpair:b"]

    def test_abandon_after_completion_loses_the_race(self):
        task = make_task(["a"])
        assert task.complete({"ok": True})
        assert task.abandon() is None
        assert task.wait(1) == {"ok": True}

    def test_complete_after_abandon_reports_discard(self):
        task = make_task(["a"])
        assert task.abandon() == "queued"
        assert task.complete({"ok": True}) is False
        assert task.wait(1) is None  # the reply was swallowed


class TestBackpressureAndShutdown:
    def test_full_queue_refuses_submit(self):
        scheduler = Scheduler(StubMapper(),
                              ServeSettings(max_queue=1))
        assert scheduler.submit(make_task(["a"]))
        assert not scheduler.submit(make_task(["b"]))
        assert scheduler.totals()["busy_rejected"] == 1

    def test_close_fails_queued_tasks_and_closes_mapper(self):
        mapper = StubMapper()
        scheduler = Scheduler(mapper)
        task = make_task(["a"])
        assert scheduler.submit(task)
        scheduler.close()
        reply = task.wait(1)
        assert reply["ok"] is False
        assert reply["error_code"] == E_SHUTTING_DOWN
        assert mapper.closed
        assert not scheduler.submit(make_task(["b"]))

    def test_engine_failure_answers_every_batch_member(self):
        class ExplodingMapper(StubMapper):
            def map(self, items, engine=None):
                raise RuntimeError("engine fell over")

        scheduler = Scheduler(ExplodingMapper())
        first, second = make_task(["a"]), make_task(["b"])
        assert scheduler.submit(first) and scheduler.submit(second)
        assert scheduler.run_once() == 2
        for task in (first, second):
            reply = task.wait(1)
            assert reply["ok"] is False
            assert "engine fell over" in reply["error"]
        # The scheduler survives a bad batch.
        healthy = make_task(["c"])
        scheduler2 = Scheduler(StubMapper())
        assert scheduler2.submit(healthy)
        assert scheduler2.run_once() == 1
        assert healthy.wait(1)["lines"] == ["sam|genpair:c"]


class TestSettings:
    @pytest.mark.parametrize("kwargs", [
        {"max_queue": 0}, {"max_clients": 0},
        {"request_timeout_s": 0.0}, {"request_timeout_s": -1.0},
        {"coalesce_requests": 0}, {"coalesce_wait_s": -0.1}])
    def test_bad_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeSettings(**kwargs).validate()

    def test_none_request_timeout_disables_the_default(self):
        settings = ServeSettings(request_timeout_s=None).validate()
        assert settings.request_timeout_s is None


def test_error_reply_shape():
    reply = error_reply(E_BUSY, "queue full", op="map",
                        retry_after_s=0.05)
    assert reply == {"ok": False, "error": "queue full",
                     "error_code": "busy", "op": "map",
                     "retry_after_s": 0.05}
