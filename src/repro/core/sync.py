"""Engine-wide monitor.

Every piece of mutable runtime state of one engine — allocation tables,
checkpoint instance states, the restore-order queue, the demand-request slot
— is protected by a single :class:`Monitor`: one re-entrant mutex and two
conditions on it.  The main one says "something changed, re-evaluate";
:attr:`Monitor.hints` says only "the walkable hint queue changed", so a
prefetch worker with no hint to walk sleeps through every other change.
Long operations (throttled transfers) always happen *outside* the monitor;
the monitor only serializes metadata updates and provides the "wait until
something changed, then re-evaluate" primitive the eviction and prefetch
logic are built on.

A single coarse monitor is a deliberate choice: the runtime performs at most
a few thousand metadata operations per shot, the transfers dominate, and a
monitor gives a trivially deadlock-free design (the C++ original uses
fine-grained locks and a good fraction of its complexity is exactly there).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional

from repro.clock import Event, VirtualClock


class Monitor:
    """One engine's mutex + its two condition variables."""

    def __init__(self, clock: VirtualClock) -> None:
        self._lock = threading.RLock()
        self._cond = clock.condition(self._lock)
        #: notified only when the hint queue gains something to walk (a
        #: start, an enqueue once started, a predicted-overlay refresh) and
        #: on shutdown; what a worker with an empty queue parks on.
        self.hints = clock.condition(self._lock)
        #: bumped by every :meth:`notify_all`; ``_own.count`` per thread.
        self.changes = 0
        self._own = threading.local()

    def __enter__(self) -> "Monitor":
        self._lock.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()

    def notify_all(self) -> None:
        """Wake every waiter.  The monitor must be held."""
        self.changes += 1
        self._own.count = getattr(self._own, "count", 0) + 1
        self._cond.notify_all()

    def wake_all(self) -> None:
        """Wake every waiter without counting a change: what moved is a
        waiter's own verdict, not state :meth:`others_changes` watches.
        The monitor must be held."""
        self._cond.notify_all()

    def others_changes(self) -> int:
        """How many :meth:`notify_all` calls other threads made so far: a
        waiter that finds it where it left it knows nothing it could
        re-evaluate has changed.  The monitor must be held."""
        return self.changes - getattr(self._own, "count", 0)

    def wait(self, virtual_timeout: Optional[float] = None, wake_on: Iterable[Event] = ()) -> bool:
        """Release the monitor and park until notified or an event of
        ``wake_on`` is set (``True``), or until ``virtual_timeout`` nominal
        seconds passed (``False``).  The monitor must be held."""
        return self._cond.wait(virtual_timeout, wake_on)

    def wait_for(
        self, predicate: Callable[[], bool], virtual_timeout: Optional[float] = None
    ) -> bool:
        """``Condition.wait_for`` in nominal time.  The monitor must be held."""
        return self._cond.wait_for(predicate, virtual_timeout)
