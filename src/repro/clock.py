"""Virtual time.

All simulated costs in this repository (transfer durations, compute
intervals, allocation penalties) are expressed in *nominal seconds* — the
units the paper reports.  :class:`VirtualClock` maps nominal time onto scaled
wall-clock time so that a shot whose nominal duration is minutes executes in
well under a second of real time, while every measured duration and derived
throughput stays in paper units.

``time_scale`` is the ratio real/virtual: with ``time_scale=0.01`` a nominal
10 ms compute interval sleeps 100 µs of wall time, and ``now()`` advances 100
virtual seconds per real second.  ``time_scale=1.0`` is an unscaled clock.

The clock is shared by every thread of a simulation so cross-thread
timestamps are comparable.  It is intentionally *not* a discrete-event
engine: the runtime under test uses real threads and condition variables,
exactly like the C++ system it reproduces, and the clock only rescales the
passage of time.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.errors import ConfigError


#: Below this many wall-clock seconds the sleeper spins instead of calling
#: ``time.sleep`` — OS sleep granularity (~60 µs) would otherwise dominate
#: heavily-scaled transfer times and distort measured throughput.
SPIN_THRESHOLD = 200e-6


class VirtualClock:
    """A monotonic clock whose rate is ``1 / time_scale`` of wall time."""

    def __init__(self, time_scale: float = 1.0) -> None:
        if not (0.0 < time_scale <= 1000.0):
            raise ConfigError(f"time_scale out of range (0, 1000]: {time_scale}")
        self.time_scale = float(time_scale)
        self._origin = time.monotonic()

    # -- conversions -----------------------------------------------------
    def to_real(self, virtual_seconds: float) -> float:
        """Wall-clock seconds corresponding to ``virtual_seconds``."""
        return virtual_seconds * self.time_scale

    def to_virtual(self, real_seconds: float) -> float:
        """Nominal seconds corresponding to ``real_seconds`` of wall time."""
        return real_seconds / self.time_scale

    # -- reading ---------------------------------------------------------
    def now(self) -> float:
        """Nominal seconds elapsed since the clock was created."""
        return (time.monotonic() - self._origin) / self.time_scale

    # -- sleeping / waiting -----------------------------------------------
    def sleep(
        self, virtual_seconds: float, cancelled: Optional[threading.Event] = None
    ) -> bool:
        """Block the calling thread for ``virtual_seconds`` of nominal time.

        With ``cancelled``, the sleep wakes as soon as the event fires (a
        coalesced link span can be long; a cancellation must not wait it
        out) and returns ``True`` when it was cut short; otherwise ``False``.
        """
        if virtual_seconds < 0:
            raise ValueError(f"negative sleep: {virtual_seconds}")
        deadline = time.monotonic() + self.to_real(virtual_seconds)
        # Coarse sleep down to the spin threshold, then spin the remainder.
        # OS sleeps overshoot by tens of microseconds, which at small
        # time_scale would multiply into large *virtual* errors; the final
        # spin keeps scaled durations accurate to a few microseconds.
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return cancelled is not None and cancelled.is_set()
            if cancelled is None:
                if remaining > SPIN_THRESHOLD:
                    time.sleep(remaining - SPIN_THRESHOLD)
            elif remaining > SPIN_THRESHOLD:
                if cancelled.wait(remaining - SPIN_THRESHOLD):
                    return True
            elif cancelled.is_set():
                return True
            # else: spin (loop re-checks the deadline immediately)

    def wait(
        self, cond: threading.Condition, virtual_timeout: Optional[float] = None
    ) -> bool:
        """``Condition.wait`` with the timeout given in nominal seconds (the
        condition's lock must already be held).  Every timed wait in the
        runtime goes through here or :meth:`wait_for`."""
        return cond.wait(None if virtual_timeout is None else self.to_real(virtual_timeout))

    def wait_for(
        self,
        cond: threading.Condition,
        predicate: Callable[[], bool],
        virtual_timeout: Optional[float] = None,
    ) -> bool:
        """``Condition.wait_for`` with the timeout given in nominal seconds.

        The condition's lock must already be held.  Returns the final value
        of ``predicate()`` (i.e. ``False`` only on timeout).
        """
        real_timeout = None if virtual_timeout is None else self.to_real(virtual_timeout)
        return cond.wait_for(predicate, timeout=real_timeout)


class Stopwatch:
    """Measures a nominal-time interval on a :class:`VirtualClock`.

    Usable as a context manager::

        with Stopwatch(clock) as sw:
            do_blocking_work()
        elapsed = sw.elapsed
    """

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self.started_at: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self.started_at = self._clock.now()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self.started_at is not None
        self.elapsed = self._clock.now() - self.started_at
