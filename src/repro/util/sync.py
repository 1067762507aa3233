"""Runtime lock sanitizer — the dynamic complement to ``RPL1xxx``.

The static concurrency family (``tools/lint/concurrency.py``) models
locks from the AST; this module checks the same properties on the
*live* locks when ``REPRO_SANITIZE=1`` is set (or
:func:`set_sanitize` is called): every lock built through
:func:`maybe_sanitize_lock` becomes a :class:`SanitizedLock` that
asserts, at acquisition time,

* **no double acquire** — the owning thread re-entering a
  non-reentrant lock would deadlock silently; the sanitizer raises
  :class:`SanitizerError` instead;
* **consistent acquisition order** — a process-wide order graph
  records ``A → B`` whenever ``B`` is acquired with ``A`` held; the
  first acquisition that closes a cycle (the RPL1003 inversion) raises
  rather than waiting for the one unlucky interleaving that deadlocks;
* **owner-only release** — releasing a lock another thread acquired
  corrupts the guard invariant and raises immediately.

:meth:`SanitizedLock.assert_owned` is the hook instrumented state uses
to assert "my lock is held by *me* right now" (the
``MetricsRegistry`` mutation assertions the concurrency stress tests
run under).

Sanitizing is off by default and costs nothing when off:
:func:`maybe_sanitize_lock` then returns the plain
``threading.Lock`` the caller would have built anyway.  Modules that
cache a lock in a global register an :func:`on_sanitize_toggle`
callback to rebuild it when tests flip the mode at runtime.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional, Set

__all__ = [
    "SanitizedLock", "SanitizerError", "maybe_sanitize_lock",
    "on_sanitize_toggle", "reset_order_graph", "sanitize_enabled",
    "set_sanitize",
]


class SanitizerError(AssertionError):
    """A concurrency invariant the sanitizer watches was violated."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_SANITIZE", "") not in (
        "", "0", "false", "False", "no")


#: Process-wide sanitize flag (seeded from ``REPRO_SANITIZE``).
_SANITIZE = _env_enabled()

#: Callbacks run when the flag flips (modules rebuild cached locks).
_TOGGLE_CALLBACKS: List[Callable[[], None]] = []

#: Names of sanitized locks the current thread holds, innermost last.
_HELD = threading.local()

#: The acquisition-order graph: ``name -> {names acquired while name
#: was held}``.  Guarded by its own plain lock (never sanitized —
#: the watcher must not watch itself).
_ORDER_LOCK = threading.Lock()
_ORDER_EDGES: Dict[str, Set[str]] = {}


def sanitize_enabled() -> bool:
    """Whether sanitize mode is currently on."""
    return _SANITIZE


def set_sanitize(enabled: bool) -> bool:
    """Flip sanitize mode process-wide; returns the previous value.

    Runs the registered toggle callbacks on a real flip so modules
    holding a cached lock (the metrics registry) swap it for a
    sanitized/plain one.
    """
    global _SANITIZE
    previous = _SANITIZE
    _SANITIZE = bool(enabled)
    if previous != _SANITIZE:
        for callback in list(_TOGGLE_CALLBACKS):
            callback()
    return previous


def on_sanitize_toggle(callback: Callable[[], None]) -> None:
    """Run ``callback`` whenever :func:`set_sanitize` flips the mode."""
    _TOGGLE_CALLBACKS.append(callback)


def reset_order_graph() -> None:
    """Forget every recorded acquisition-order edge (test isolation)."""
    with _ORDER_LOCK:
        _ORDER_EDGES.clear()


def _held_names() -> List[str]:
    names = getattr(_HELD, "names", None)
    if names is None:
        names = _HELD.names = []
    return names


class SanitizedLock:
    """A non-reentrant lock that asserts sanity at every transition.

    Context-manager compatible with ``threading.Lock`` so it can be
    swapped in anywhere a plain lock is used.
    """

    __slots__ = ("name", "_lock", "_owner")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._owner: Optional[int] = None

    # -- checks --------------------------------------------------------

    def owned(self) -> bool:
        """Is the calling thread the current owner?"""
        return self._owner == threading.get_ident()

    def assert_owned(self, what: str = "guarded state") -> None:
        """Raise unless the calling thread holds this lock — the
        mutation-site assertion instrumented code calls."""
        if not self.owned():
            raise SanitizerError(
                f"{what} touched without holding lock "
                f"{self.name!r} (thread "
                f"{threading.current_thread().name})")

    def _check_order(self) -> None:
        held = _held_names()
        if not held:
            return
        with _ORDER_LOCK:
            reachable_from_me = _ORDER_EDGES.get(self.name, set())
            for prior in held:
                if prior in reachable_from_me:
                    raise SanitizerError(
                        f"lock-order inversion: acquiring "
                        f"{self.name!r} while holding {prior!r}, but "
                        f"{prior!r} has been acquired while "
                        f"{self.name!r} was held — two threads can "
                        "deadlock (RPL1003 at runtime)")
                _ORDER_EDGES.setdefault(prior, set()).add(self.name)

    # -- the lock protocol ---------------------------------------------

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        if self.owned():
            raise SanitizerError(
                f"double acquire of non-reentrant lock {self.name!r} "
                f"by thread {threading.current_thread().name} — this "
                "deadlocks outside sanitize mode")
        self._check_order()
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()
            _held_names().append(self.name)
        return acquired

    def release(self) -> None:
        if not self.owned():
            raise SanitizerError(
                f"release of lock {self.name!r} by thread "
                f"{threading.current_thread().name}, which does not "
                "own it")
        self._owner = None
        held = _held_names()
        if held and held[-1] == self.name:
            held.pop()
        elif self.name in held:
            held.remove(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "SanitizedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "locked" if self.locked() else "unlocked"
        return f"SanitizedLock({self.name!r}, {state})"


def maybe_sanitize_lock(name: str, lock=None):
    """The lock concurrency-sensitive modules should build: a
    :class:`SanitizedLock` when sanitize mode is on, else ``lock``
    (or a fresh plain ``threading.Lock``)."""
    if _SANITIZE:
        return SanitizedLock(name)
    return lock if lock is not None else threading.Lock()
