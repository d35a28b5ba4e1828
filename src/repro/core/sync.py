"""Engine-wide monitor.

Every piece of mutable runtime state of one engine — allocation tables,
checkpoint instance states, the restore-order queue, the demand-request slot
— is protected by a single :class:`Monitor` (one re-entrant mutex plus one
condition).  Long operations (throttled transfers) always happen *outside*
the monitor; the monitor only serializes metadata updates and provides the
"wait until something changed, then re-evaluate" primitive the eviction and
prefetch logic are built on.

A single coarse monitor is a deliberate choice: the runtime performs at most
a few thousand metadata operations per shot, the transfers dominate, and a
monitor gives a trivially deadlock-free design (the C++ original uses
fine-grained locks and a good fraction of its complexity is exactly there).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.clock import VirtualClock


class Monitor:
    """One engine's mutex + condition variable."""

    def __init__(self, clock: VirtualClock) -> None:
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._clock = clock

    def __enter__(self) -> "Monitor":
        self._lock.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()

    def notify_all(self) -> None:
        """Wake every waiter.  The monitor must be held."""
        self._cond.notify_all()

    def wait(self, virtual_timeout: Optional[float] = None) -> None:
        """Release the monitor and sleep until notified (or timeout, given
        in nominal seconds).  The monitor must be held."""
        self._clock.wait(self._cond, virtual_timeout)

    def wait_for(
        self, predicate: Callable[[], bool], virtual_timeout: Optional[float] = None
    ) -> bool:
        """``Condition.wait_for`` in nominal time.  The monitor must be held."""
        return self._clock.wait_for(self._cond, predicate, virtual_timeout)
