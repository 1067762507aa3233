"""The request scheduler: one warm engine pool, many concurrent clients.

Connection threads never touch the :class:`~repro.api.Mapper`
directly.  They submit :class:`MapTask` items into a **bounded** queue
and block on the task's completion event; one scheduler thread drains
the queue and multiplexes the work onto the single warm mapper.  Three
properties fall out:

* **Coalescing.**  Inline ``map`` requests that agree on (engine,
  output format) are merged into one batch — up to
  ``coalesce_requests`` requests / :data:`COALESCE_ITEMS` workload items,
  flushed early when the queue runs dry or after ``coalesce_wait_s``
  (the deadline trigger; 0 keeps coalescing purely opportunistic, so
  an idle daemon adds no latency).  The batch maps as **one**
  vectorized engine run — the whole point: eight 4-pair requests cost
  one 32-pair engine run, not eight — and the results are
  demultiplexed back per request, each request's lines rendered
  separately, so every reply is byte-identical to an uncoalesced one
  (mapping is per-item deterministic; asserted in the tests and the
  concurrent CI stress).  Requests that differ in engine or format are
  **never** merged; ``map_file`` and traced requests always run solo.
* **Backpressure.**  The queue is bounded (``max_queue``); when it is
  full, :meth:`Scheduler.submit` refuses and the server answers a
  structured ``busy`` error instead of queueing without bound.
* **Deadlines.**  Every task may carry one.  Expiring while queued
  skips the work entirely; expiring while executing discards the
  result.  Either way the waiting connection thread answers promptly
  (it waits only until the deadline) and the queue never wedges — an
  abandoned task (timeout or client disconnect) is completed into the
  void and dropped.

Locking: the queue is a ``queue.Queue`` (its own lock); per-task state
is guarded by the task's ``serve.task`` lock; scheduler totals by
``serve.sched``; the mapper itself is touched only by the scheduler
thread and :meth:`close`, serialized by the ``serve.map`` lock.  Batch
assembly state (the holdover slot) is scheduler-thread-private.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..obs import capture_trace, get_registry, span
from ..util.sync import maybe_sanitize_lock
from .protocol import (E_INTERNAL, E_SHUTTING_DOWN, E_TIMEOUT,
                       error_reply)

#: ``MapTask.state`` values (guarded by the task lock).
QUEUED = "queued"
EXECUTING = "executing"
DONE = "done"
ABANDONED = "abandoned"

#: Workload items (pairs / reads) past which a coalesced batch stops
#: taking followers: the engines' default chunk, so a full batch is one
#: vectorized chunk call.
COALESCE_ITEMS = 256


@dataclass
class ServeSettings:
    """The serving-tier knobs (``repro serve`` flags map 1:1:
    ``--max-queue``, ``--max-clients``, ``--request-timeout``,
    ``--coalesce-max``, ``--coalesce-wait-ms``).

    Defaults are deliberately conservative: a full queue answers
    ``busy`` long before memory is at risk, and a five-minute request
    deadline bounds how long a wedged client can hold a slot.
    """

    max_queue: int = 64
    max_clients: int = 64
    request_timeout_s: Optional[float] = 300.0
    coalesce_requests: int = 16
    coalesce_wait_s: float = 0.0

    def validate(self) -> "ServeSettings":
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_clients < 1:
            raise ValueError("max_clients must be >= 1")
        if self.request_timeout_s is not None \
                and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0 "
                             "(None disables the default deadline)")
        if self.coalesce_requests < 1:
            raise ValueError("coalesce_requests must be >= 1")
        if self.coalesce_wait_s < 0:
            raise ValueError("coalesce_wait_s must be >= 0")
        return self


class MapTask:
    """One queued mapping request and its completion rendezvous.

    The submitting connection thread blocks in :meth:`wait`; the
    scheduler thread delivers through :meth:`complete`.  Either side
    may lose the race — a task abandoned at its deadline (or because
    the client disconnected) swallows the late result silently.
    """

    __slots__ = ("op", "engine", "format", "header", "trace", "items",
                 "payload", "deadline", "enqueued", "state", "reply",
                 "_lock", "_done")

    def __init__(self, op: str, engine: str, format: str,
                 payload: Any, items: int, header: bool = False,
                 trace: bool = False,
                 timeout_s: Optional[float] = None) -> None:
        self.op = op
        self.engine = engine
        self.format = format
        self.header = header
        self.trace = trace
        self.payload = payload
        self.items = items
        self.enqueued = time.monotonic()
        self.deadline = (self.enqueued + timeout_s
                         if timeout_s is not None else None)
        self.state = QUEUED
        self.reply: Optional[Dict[str, Any]] = None
        self._lock = maybe_sanitize_lock("serve.task")
        self._done = threading.Event()

    # -- coalescing ----------------------------------------------------

    @property
    def coalesce_key(self) -> Optional[tuple]:
        """Tasks with equal keys may share a batch; ``None`` runs solo.

        Only inline ``map`` work coalesces, and only when engine and
        output format agree — merging across either would feed one
        engine run items meant for another, breaking byte-identity.
        Traced requests run solo so their span breakdown covers
        exactly their own work.
        """
        if self.op != "map" or self.trace:
            return None
        return (self.engine, self.format)

    # -- deadline ------------------------------------------------------

    def remaining_s(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def expired(self) -> bool:
        return self.deadline is not None \
            and time.monotonic() > self.deadline

    # -- rendezvous ----------------------------------------------------

    def mark_executing(self) -> bool:
        """Scheduler-side: claim the task for execution; ``False`` if
        the waiter already abandoned it (skip the work)."""
        with self._lock:
            if self.state == ABANDONED:
                return False
            self.state = EXECUTING
            return True

    def complete(self, reply: Dict[str, Any]) -> bool:
        """Deliver the reply; ``False`` when the waiter is gone and
        the result was discarded."""
        with self._lock:
            delivered = self.state != ABANDONED
            if delivered:
                self.reply = reply
            self.state = DONE
            self._done.set()
            return delivered

    def abandon(self) -> Optional[str]:
        """Waiter-side: give up on the task (deadline hit, or the
        client disconnected).  Returns the state the task was in when
        abandoned (``queued``/``executing``) so the caller can report
        *where* the deadline expired — or ``None`` when a reply
        arrived first and abandoning lost the race."""
        with self._lock:
            if self.state == DONE:
                return None
            stage, self.state = self.state, ABANDONED
            return stage

    def wait(self, timeout: Optional[float] = None
             ) -> Optional[Dict[str, Any]]:
        """Block until completion (or ``timeout``); the reply, or
        ``None`` when the wait timed out."""
        if not self._done.wait(timeout):
            return None
        with self._lock:
            return self.reply


@dataclass
class SchedulerTotals:
    """Scheduler-side counters (lock-guarded; ``stats`` op surface)."""

    batches: int = 0
    coalesced_batches: int = 0
    coalesced_requests: int = 0
    max_batch_requests: int = 0
    busy_rejected: int = 0
    timeouts: int = 0
    discarded: int = 0


class Scheduler:
    """Owns the warm mapper; drains the bounded queue in one thread."""

    def __init__(self, mapper, settings: Optional[ServeSettings] = None
                 ) -> None:
        self.mapper = mapper
        self.settings = (settings if settings is not None
                         else ServeSettings()).validate()
        self._queue: "queue.Queue[Optional[MapTask]]" = queue.Queue(
            maxsize=self.settings.max_queue)
        self._totals = SchedulerTotals()
        self._totals_lock = maybe_sanitize_lock("serve.sched")
        # The mapper is exercised only here and in close(); the lock
        # makes teardown wait for an in-flight batch.
        self._map_lock = maybe_sanitize_lock("serve.map")
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Scheduler-thread-private holdover: the first task of the
        # *next* batch, pulled while assembling the current one.
        self._holdover: Optional[MapTask] = None

    # -- submission (connection threads) -------------------------------

    def submit(self, task: MapTask) -> bool:
        """Enqueue; ``False`` means the queue is full (answer busy)."""
        if self._stop.is_set():
            return False
        try:
            self._queue.put_nowait(task)
        except queue.Full:
            with self._totals_lock:
                self._totals.busy_rejected += 1
            return False
        self._observe_depth()
        return True

    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def closing(self) -> bool:
        return self._stop.is_set()

    def _observe_depth(self) -> None:
        obs = get_registry()
        if obs.enabled:
            obs.gauge("serve.queue_depth").set(self._queue.qsize())

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn the scheduler thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-serve-sched",
                daemon=True)
            self._thread.start()

    def close(self) -> None:
        """Stop the thread, fail queued work, close the mapper.

        The current batch finishes (the map lock serializes us behind
        it); everything still queued is answered ``shutting_down``.
        """
        self._stop.set()
        try:
            self._queue.put_nowait(None)  # wake a blocked get()
        except queue.Full:
            pass
        thread = self._thread
        if thread is not None:
            thread.join(timeout=30.0)
        self._drain_failed()
        with self._map_lock:
            self.mapper.close()

    def _drain_failed(self) -> None:
        leftovers: List[MapTask] = []
        if self._holdover is not None:
            leftovers.append(self._holdover)
            self._holdover = None
        while True:
            try:
                task = self._queue.get_nowait()
            except queue.Empty:
                break
            if task is not None:
                leftovers.append(task)
        for task in leftovers:
            task.complete(error_reply(
                E_SHUTTING_DOWN, "daemon is shutting down", op=task.op))

    def totals(self) -> Dict[str, Any]:
        with self._totals_lock:
            snapshot = {
                "batches": self._totals.batches,
                "coalesced_batches": self._totals.coalesced_batches,
                "coalesced_requests": self._totals.coalesced_requests,
                "max_batch_requests": self._totals.max_batch_requests,
                "busy_rejected": self._totals.busy_rejected,
                "timeouts": self._totals.timeouts,
                "discarded": self._totals.discarded,
            }
        snapshot["queue_depth"] = self._queue.qsize()
        snapshot["max_queue"] = self.settings.max_queue
        snapshot["coalesce_requests"] = self.settings.coalesce_requests
        snapshot["coalesce_items"] = COALESCE_ITEMS
        snapshot["coalesce_wait_s"] = self.settings.coalesce_wait_s
        return snapshot

    # -- the scheduler loop --------------------------------------------

    def _loop(self) -> None:
        while True:
            batch = self._collect()
            if batch:
                self._execute(batch)
            if self._stop.is_set() and not batch \
                    and self._holdover is None:
                return

    def run_once(self) -> int:
        """Collect and execute one batch synchronously (tests drive
        the scheduler deterministically through this instead of the
        thread).  Returns the number of requests in the batch."""
        batch = self._collect(block=False)
        if batch:
            self._execute(batch)
        return len(batch)

    def _next_task(self, block: bool) -> Optional[MapTask]:
        if self._holdover is not None:
            task, self._holdover = self._holdover, None
            return task
        while True:
            try:
                task = self._queue.get(block=block, timeout=0.2)
            except queue.Empty:
                if not block or self._stop.is_set():
                    return None
                continue
            self._observe_depth()
            return task  # None is the shutdown sentinel

    def _collect(self, block: bool = True) -> List[MapTask]:
        """Assemble one batch: a first task, then compatible followers
        until a size/item bound, the wait deadline, or a key change."""
        first = self._next_task(block)
        if first is None:
            return []
        batch = [first]
        key = first.coalesce_key
        if key is None:
            return batch
        items = first.items
        settings = self.settings
        flush_at = time.monotonic() + settings.coalesce_wait_s
        while len(batch) < settings.coalesce_requests \
                and items < COALESCE_ITEMS:
            wait_s = flush_at - time.monotonic()
            try:
                if wait_s > 0:
                    follower = self._queue.get(timeout=wait_s)
                else:
                    follower = self._queue.get_nowait()
            except queue.Empty:
                break
            self._observe_depth()
            if follower is None:  # shutdown sentinel mid-batch
                self._stop.set()
                break
            if follower.coalesce_key != key:
                self._holdover = follower
                break
            batch.append(follower)
            items += follower.items
        return batch

    # -- batch execution -----------------------------------------------

    def _execute(self, batch: List[MapTask]) -> None:
        obs = get_registry()
        live: List[MapTask] = []
        for task in batch:
            if task.expired():
                self._timeout(task, QUEUED)
            elif task.mark_executing():
                live.append(task)
            else:
                self._count_discarded()
        if not live:
            return
        if obs.enabled:
            obs.histogram("serve.batch_requests").observe(len(live))
            obs.histogram("serve.batch_items").observe(
                sum(task.items for task in live))
            now = time.monotonic()
            for task in live:
                obs.histogram("serve.queue_wait_s").observe(
                    now - task.enqueued)
        with self._totals_lock:
            self._totals.batches += 1
            if len(live) > 1:
                self._totals.coalesced_batches += 1
                self._totals.coalesced_requests += len(live)
            if len(live) > self._totals.max_batch_requests:
                self._totals.max_batch_requests = len(live)
        try:
            with self._map_lock:
                if live[0].op == "map_file":
                    replies = [self._run_map_file(live[0])]
                else:
                    replies = self._run_map(live)
        except Exception as exc:  # keep serving after a bad batch
            message = f"{type(exc).__name__}: {exc}"
            for task in live:
                self._deliver(task, error_reply(E_INTERNAL, message,
                                                op=task.op))
            return
        for task, reply in zip(live, replies):
            if task.expired():
                self._timeout(task, EXECUTING)
            else:
                self._deliver(task, reply)

    def _deliver(self, task: MapTask, reply: Dict[str, Any]) -> None:
        if not task.complete(reply):
            self._count_discarded()

    def note_timeout(self) -> None:
        """Count one deadline expiry (also called by the connection
        layer when a waiter abandons its task at the deadline before
        the scheduler notices)."""
        with self._totals_lock:
            self._totals.timeouts += 1
        obs = get_registry()
        if obs.enabled:
            obs.counter("serve.timeouts").inc()

    def _timeout(self, task: MapTask, stage: str) -> None:
        delivered = task.complete(error_reply(
            E_TIMEOUT,
            f"request deadline expired while {stage} "
            "(raise timeout_s, or retry when the daemon is idle)",
            op=task.op, stage=stage))
        if delivered:
            self.note_timeout()
        else:
            # The waiting connection thread already abandoned the task
            # at its deadline — and counted the timeout itself via
            # note_timeout() — so count only the discarded result here.
            self._count_discarded()

    def _count_discarded(self) -> None:
        with self._totals_lock:
            self._totals.discarded += 1

    # -- mapping -------------------------------------------------------

    def _run_map(self, batch: List[MapTask]
                 ) -> List[Dict[str, Any]]:
        """Map every task's items as one engine run, then demultiplex.

        Mapping is per-item deterministic (the batched engines are
        bit-identical to per-item runs — PR 1's gate), and lines are
        rendered **per request**, so each reply's bytes match what a
        solo run of that request would produce.
        """
        first = batch[0]
        merged: List = []
        for task in batch:
            merged.extend(task.payload)

        def run():
            with span("serve.map"):
                results = self.mapper.map(merged, engine=first.engine)
            with span("serve.render"):
                rendered = []
                offset = 0
                for task in batch:
                    piece = results[offset:offset + task.items]
                    offset += task.items
                    rendered.append(list(self.mapper.lines(
                        piece, format=task.format,
                        header=task.header)))
                return rendered

        started = time.perf_counter()
        trace = None
        if first.trace:
            with capture_trace() as tracer:
                rendered = run()
            trace = tracer.to_dicts()
        else:
            rendered = run()
        self._record_map_metrics(first.engine, first.format,
                                 time.perf_counter() - started)
        stats = self._stats_dict(self.mapper.last_stats)
        replies = []
        for task, lines in zip(batch, rendered):
            reply = {"pairs": task.items, "lines": lines,
                     "engine": first.engine, "format": task.format,
                     "stats": stats, "coalesced": len(batch)}
            if trace is not None:
                reply["trace"] = trace
            replies.append(reply)
        return replies

    def _run_map_file(self, task: MapTask) -> Dict[str, Any]:
        reads1, reads2, out = task.payload

        def run():
            with span("serve.map"):
                results = self.mapper.map_file(reads1, reads2,
                                               engine=task.engine)
                return self.mapper.write(results, out,
                                         format=task.format)

        started = time.perf_counter()
        trace = None
        if task.trace:
            with capture_trace() as tracer:
                records = run()
            trace = tracer.to_dicts()
        else:
            records = run()
        self._record_map_metrics(task.engine, task.format,
                                 time.perf_counter() - started)
        stats = self._stats_dict(self.mapper.last_stats)
        units = _stat_units(stats)
        task.items = units  # server-side totals count what really ran
        reply = {"pairs": units, "records": records, "out": out,
                 "engine": task.engine, "format": task.format,
                 "stats": stats}
        if trace is not None:
            reply["trace"] = trace
        return reply

    @staticmethod
    def _stats_dict(stats) -> Dict[str, int]:
        from ..api.engines import stats_dict

        return stats_dict(stats)

    @staticmethod
    def _record_map_metrics(engine_name: str, format_name: str,
                            elapsed: float) -> None:
        obs = get_registry()
        if obs.enabled:
            obs.histogram(
                f"serve.map_s.{engine_name}.{format_name}"
            ).observe(elapsed)


def _stat_units(stats: Dict[str, int]) -> int:
    """How many workload items a per-run stats dict accounts for
    (pairs for the paired engines, reads for single-read ones)."""
    for key in ("pairs_total", "pairs_seen", "reads_total"):
        if key in stats:
            return stats[key]
    return 0
