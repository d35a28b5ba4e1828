"""Virtual time.

All simulated costs in this repository (transfer durations, compute
intervals, allocation penalties) are expressed in *nominal seconds* — the
units the paper reports.  :class:`VirtualClock` is the one clock every thread
of a simulation reads, so cross-thread timestamps are comparable.  The
runtime under test keeps real threads and condition variables, exactly like
the C++ system it reproduces; the clock decides how fast nominal time passes
for them.

Time passes in two ways:

* **Skipped.**  Every runtime thread is *registered* with the clock: the
  thread-creation sites wrap their target in :meth:`VirtualClock.runner`, and
  any other thread registers at its first use of the clock (and drops out
  when it exits).  Every blocking point of the runtime parks through the
  clock — :meth:`~VirtualClock.sleep`, :meth:`~VirtualClock.join`, and the
  waits of the conditions, events and barriers made by
  :meth:`~VirtualClock.condition` / :meth:`~VirtualClock.event` /
  :meth:`~VirtualClock.barrier`.
  When the last registered thread parks and some park has a deadline, the
  clock adds the gap to the earliest deadline to its offset and wakes exactly
  the parks due then.  Simulated idle time costs no wall time.
* **Paced.**  While any registered thread is not parked — running Python, or
  blocked in a primitive the clock does not know about (a raw
  ``threading.Barrier``, a ``join``) — or a live thread the clock does not
  know might act (any but a main thread that has not used the clock), ``now()``
  advances with wall time at ``1 / time_scale`` nominal seconds per real
  second, and a sleeper parks until its scaled wall deadline: the first
  reading past it or the OS timer wakes it (a wait shorter than
  :data:`SPIN_THRESHOLD` spins).  Liveness never depends on every blocking
  point being known: the worst case is a wall-paced clock.  Building
  runtime state is not a use: constructors run in
  :meth:`~VirtualClock.setup`, which leaves the building thread registered
  only if it was before, so a main thread that builds a cluster and
  raw-joins its clients does not hold time at wall pace.

A ``notify``/``set`` marks its waiters runnable before it returns, so time
never skips between a wake-up and the woken thread running, and a wait on an
event already set never counts as parked.  No wait carries a timeout its
caller did not ask for: when every live thread is registered (a registered
main thread included), all of them are parked and no park has a deadline,
nothing can ever wake them, and each wait raises a
:class:`DeadlockError` carrying the park table instead.  The
clock's lock is a leaf: nothing is called out while it is held.
"""

from __future__ import annotations

import heapq
import itertools
import sys
import threading
import time
import weakref
from _thread import allocate_lock
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterable, Optional

from repro.errors import ConfigError


#: A paced sleep with less wall wait than this spins instead of parking: a
#: timed OS wait overshoots by ~58 µs (median, pinned CPU), swamping it.
#: Best of 20/40/60 µs on the ledger (EXPERIMENTS.md, "A paced sleep parks").
SPIN_THRESHOLD = 20e-6

#: While a skip is held back by a live thread the clock does not know,
#: parked threads look again after this many wall seconds, doubling up to
#: ``RECHECK_S``: such a thread usually registers or exits soon, but a look
#: costs the GIL the thread being waited for needs.
RECHECK_FIRST_S = 200e-6
RECHECK_S = 2e-3

_INF = float("inf")


class DeadlockError(RuntimeError):
    """No wait can ever end: every thread of a simulation is parked on its
    clock and no park has a deadline.  Raised in each parked thread, with
    the park table ``parks``: ``(thread, wait site, nominal time parked)``
    rows, the earliest park first.  A bug in the simulation, not a failure
    of the runtime it simulates, so not a :class:`~repro.errors.ReproError`
    (no handler of those retries it)."""

    def __init__(self, now: float, parks) -> None:
        rows = "".join(f"\n  {name} at {site}, parked since t={t:.6f}" for name, site, t in parks)
        super().__init__(f"no wait can end at t={now:.6f}: all threads parked, none timed{rows}")
        self.parks = parks


class _Park:
    """One blocked call: its deadline and the token its waker releases."""

    __slots__ = ("clock", "lock", "woken", "by_timer", "error")

    def __init__(self, clock: "VirtualClock") -> None:
        self.clock = clock
        self.lock = allocate_lock()
        self.lock.acquire()
        self.woken = False
        #: woken because its deadline came (skip or pace), not by a notify.
        self.by_timer = False
        #: raised by the parked thread: no wait could ever end.
        self.error: Optional[DeadlockError] = None


class _Member:
    """A registered thread's thread-local token, dropped when the thread
    exits (after it left ``threading.enumerate()``): it leaves the runner
    set then.  It holds its clock weakly, so a dropped clock ends here."""

    __slots__ = ("clock", "ident")

    def __init__(self, clock: "VirtualClock") -> None:
        self.clock = weakref.ref(clock)
        self.ident = threading.get_ident()

    def __del__(self) -> None:
        clock = self.clock()
        if clock is not None:
            clock._retire(self.ident)


class VirtualClock:
    """A monotonic nominal-time clock: wall time scaled by ``1 / time_scale``
    plus the idle time skipped while every registered thread was parked."""

    def __init__(self, time_scale: float = 1.0) -> None:
        if not (0.0 < time_scale <= 1000.0):
            raise ConfigError(f"time_scale out of range (0, 1000]: {time_scale}")
        self.time_scale = float(time_scale)
        self._origin = time.monotonic()
        self._offset = 0.0
        self._lock = allocate_lock()  # leaf: guards everything below
        self._local = threading.local()
        self._running = 0  # registered threads not parked (and runners not started yet)
        self._members: set = set()  # idents of the registered threads alive
        self._members_version = 0
        #: the last skip was held back by a thread the clock does not know.
        self._held_back = False
        #: ``(live threads, members version)`` when no unknown thread could act.
        self._census = None
        #: runner thread -> the event its exit sets (:meth:`join`).
        self._exits: dict = {}
        self._timers: list = []  # heap of (deadline, seq, park)
        #: parks no deadline ends -> (thread ident, nominal time parked).
        self._untimed: dict = {}
        #: lower bound of the earliest pending deadline (``now()`` fires due parks).
        self._due = _INF
        self._seq = itertools.count()
        #: skips taken and the nominal seconds they jumped.
        self.skips = 0
        self.skipped_s = 0.0

    # -- reading ---------------------------------------------------------
    def now(self) -> float:
        """Nominal seconds elapsed since the clock was created.  The first
        reading registers the calling thread: it takes part from then on."""
        if not hasattr(self._local, "member"):  # (one thread-local read when registered)
            self._register()
        t = (time.monotonic() - self._origin) / self.time_scale + self._offset
        if t >= self._due:
            with self._lock:
                self._fire_locked(t)
        return t

    @property
    def paced_s(self) -> float:
        """Nominal seconds the clock advanced at wall pace (not skipped)."""
        return (time.monotonic() - self._origin) / self.time_scale

    # -- the runtime's blocking primitives --------------------------------
    def condition(self, lock=None) -> "Condition":
        """A condition variable whose waits park on this clock."""
        return Condition(self, lock)

    def event(self) -> "Event":
        """An event whose waits park on this clock."""
        return Event(self)

    def barrier(self, parties: int, action: Optional[Callable] = None) -> "Barrier":
        """A barrier for ``parties`` threads whose waits park on this clock."""
        return Barrier(self, parties, action)

    @contextmanager
    def setup(self):
        """Scope of building runtime state: the thread leaves it as it came.

        A thread unregistered on entry is registered for the body (it may
        start runners, charge costs) and retired on exit, exception or not,
        by the path a thread exit takes (time may skip right then).  A
        thread registered on entry (a runner, a main thread that used the clock),
        or inside an enclosing scope, is left untouched.  Runners started
        in the body keep counting from their :meth:`runner` call."""
        if hasattr(self._local, "member"):
            yield
            return
        self._register()
        try:
            yield
        finally:
            del self._local.member  # the only reference: retires it at once

    def runner(self, target: Callable) -> Callable:
        """``target`` run as a registered thread: it counts as a runner from
        this call (before the thread starts, so time cannot skip past its
        first step) until it exits.  The one way to start a thread, and a
        use of the clock by the caller, which is registered from here on —
        unless it calls inside :meth:`setup` and came in unregistered.  The
        caller waits for the thread with :meth:`join`."""
        self._register()
        with self._lock:
            self._running += 1

        def run(*args, **kwargs):
            # (no local: a traceback holding this frame must not keep the
            # member, whose release at thread exit is the retirement)
            self._local.member = _Member(self)
            exited = self._exits.setdefault(threading.current_thread(), Event(self))
            with self._lock:
                self._members.add(threading.get_ident())
                self._members_version += 1
            try:
                return target(*args, **kwargs)
            finally:
                exited.set()

        return run

    def join(self, thread: threading.Thread) -> None:
        """``thread.join()``, parked on the clock for a thread started
        through :meth:`runner`: time may skip while it finishes (the caller
        is registered).  Any other thread (or a runner whose body has not
        begun) is joined raw: a registered caller stays a runner meanwhile,
        so time keeps wall pace; a main thread whose only use of the clock
        was building in :meth:`setup` holds nothing back."""
        exited = self._exits.get(thread)
        if exited is not None:
            exited.wait()
        thread.join()
        self._exits.pop(thread, None)

    # -- sleeping / waiting -----------------------------------------------
    def sleep(self, virtual_seconds: float, cancelled=None) -> bool:
        """Block the calling thread for ``virtual_seconds`` of nominal time.

        With ``cancelled`` (an :class:`Event`), the sleep wakes as soon as it
        is set (a coalesced link span can be long; a cancellation must not
        wait it out) and returns ``True`` when it was cut short; otherwise
        ``False``.
        """
        if virtual_seconds < 0:
            raise ValueError(f"negative sleep: {virtual_seconds}")
        if cancelled is not None and cancelled.is_set():
            return True
        if virtual_seconds == 0:
            return False
        deadline = self.now() + virtual_seconds
        if self._advance_alone(deadline):
            return False
        park = self._park(deadline, () if cancelled is None else (cancelled,))
        if not park.woken:
            # Park to the deadline: a skip, a reading past it or the OS timer
            # wakes it.  A wait too short for the OS to time spins instead.
            real = (deadline - self.now()) * self.time_scale
            if real >= SPIN_THRESHOLD:
                self._hold(park, real)
            while not park.woken:  # now() wakes the park once it is due
                self.now()
        if cancelled is None:
            return False
        cancelled._detach(park)
        return cancelled.is_set()

    # -- the park table -----------------------------------------------------
    def _park(self, deadline: Optional[float], events: Iterable["Event"] = ()) -> _Park:
        """Count the calling thread parked until its park is woken — by a
        notify/set, by a set of one of ``events``, or by its ``deadline``
        coming.  The events are attached first: a park one of them already
        woke is never counted parked.  When it was the last runner, time
        skips to the earliest deadline here (:meth:`_skip`)."""
        self._register()
        park = _Park(self)
        unset = not events or all(event._attach(park) for event in events)
        with self._lock:
            self._running -= 1
            if not unset:
                self._wake_locked(park)
            if park.woken:  # (a set between the attach and here counted it back)
                return park
            if deadline is not None:
                heapq.heappush(self._timers, (deadline, next(self._seq), park))
                if deadline < self._due:
                    self._due = deadline
            else:
                t = (time.monotonic() - self._origin) / self.time_scale + self._offset
                self._untimed[park] = (threading.get_ident(), t)
            idle = self._running == 0
        if idle:
            self._skip()
        return park

    def _block(self, park: _Park, deadline: Optional[float]) -> None:
        """Wait (not precisely: a condition or event wait) until ``park`` is
        woken or its deadline passes at wall pace; raise its
        :class:`DeadlockError` when no wait could end."""
        if deadline is None:
            self._hold(park)
        elif not self._hold(park, (deadline - self.now()) * self.time_scale):
            with self._lock:
                if not park.woken:
                    park.by_timer = True
                    self._wake_locked(park)
        if park.error is not None:
            raise park.error

    def _hold(self, park: _Park, real: Optional[float] = None) -> bool:
        """Block until ``park`` is woken (``True``) or ``real`` wall seconds
        passed (``False``).  While every registered thread is parked but a
        thread the clock does not know held the skip back, look again
        (every :data:`RECHECK_S` at most): that thread may since have
        registered or exited.  A registered runner looks again itself when
        it parks."""
        end = None if real is None else time.monotonic() + real
        recheck = RECHECK_FIRST_S
        while True:
            timeout = -1 if end is None else end - time.monotonic()
            if self._held_back and self._running == 0:
                timeout = recheck if end is None else min(recheck, timeout)
                recheck = min(2 * recheck, RECHECK_S)
            if end is not None and timeout <= 0:
                return False
            if park.lock.acquire(True, timeout):
                return True
            if self._held_back and self._running == 0:
                self._skip()

    def _wake(self, park: _Park) -> bool:
        with self._lock:
            return self._wake_locked(park)

    def _wake_all(self, parks: Iterable[_Park]) -> None:
        with self._lock:
            for park in parks:
                self._wake_locked(park)

    def _wake_locked(self, park: _Park) -> bool:
        if park.woken:
            return False
        park.woken = True
        self._untimed.pop(park, None)
        self._running += 1
        park.lock.release()
        return True

    def _advance_alone(self, deadline: float) -> bool:
        """The fast path of a sleep: the caller is the one registered thread
        running and no park is due before ``deadline``, so it advances the
        clock to it itself — no park, no hand-off."""
        if self._running != 1 or self._due < deadline:
            return False
        if getattr(self._local, "member", None) is None or not self._quiet():
            return False
        with self._lock:
            if self._running != 1 or self._due < deadline:
                return False
            t = (time.monotonic() - self._origin) / self.time_scale + self._offset
            if deadline > t:
                self._offset += deadline - t
                self.skips += 1
                self.skipped_s += deadline - t
        return True

    def _quiet(self) -> bool:
        """Every live thread is registered, bar a main thread that has not
        used this clock (one that only starts and joins the threads
        that do).  A thread the clock does not know might act before the
        next deadline, so while one lives time keeps wall pace.  A verdict
        holds while no thread starts, exits, registers or leaves."""
        census = (threading.active_count(), self._members_version)
        if census == self._census:
            return True
        members, main = self._members, threading.main_thread()
        self._held_back = any(
            t.ident not in members and t is not main for t in threading.enumerate()
        )
        self._census = None if self._held_back else census
        return not self._held_back

    def _skip(self) -> None:
        """The last runner parked or left: jump to the earliest deadline and
        wake the parks due then, if :meth:`_quiet`.  With no deadline to jump
        to and the main thread registered too, nothing can wake the parks
        left: each raises a :class:`DeadlockError` with the park table."""
        if not self._quiet():
            return
        with self._lock:
            if self._running:
                return
            self._skip_locked()
            main = threading.main_thread().ident
            if self._running or not self._untimed or main not in self._members:
                return
            frames, names = sys._current_frames(), {t.ident: t.name for t in threading.enumerate()}
            table = [(names.get(i), _wait_site(frames[i]), t) for i, t in self._untimed.values()]
            now = (time.monotonic() - self._origin) / self.time_scale + self._offset
            for park in list(self._untimed):
                park.error = DeadlockError(now, table)
                self._wake_locked(park)

    def _skip_locked(self) -> None:
        timers = self._timers
        while timers and timers[0][2].woken:
            heapq.heappop(timers)
        if not timers:
            self._due = _INF
            return
        deadline = timers[0][0]
        t = (time.monotonic() - self._origin) / self.time_scale + self._offset
        if deadline > t:
            self._offset += deadline - t
            self.skips += 1
            self.skipped_s += deadline - t
            t = deadline
        self._fire_locked(t)

    def _fire_locked(self, t: float) -> None:
        """Wake every park whose deadline is at or before ``t``."""
        timers = self._timers
        while timers and (timers[0][0] <= t or timers[0][2].woken):
            park = heapq.heappop(timers)[2]
            if not park.woken:
                park.by_timer = True
                self._wake_locked(park)
        self._due = timers[0][0] if timers else _INF

    # -- the runner set -------------------------------------------------------
    def _register(self) -> None:
        """Register the calling thread at its first use of the clock."""
        try:
            self._local.member
            return
        except AttributeError:
            self._local.member = _Member(self)
        with self._lock:
            self._running += 1
            self._members.add(threading.get_ident())
            self._members_version += 1

    def _retire(self, ident: int) -> None:
        """A registered thread exited (running, never parked): it leaves the
        runner set, and if it was the last runner, time may skip."""
        with self._lock:
            self._running -= 1
            self._members.discard(ident)
            self._members_version += 1
            idle = self._running == 0
        if idle:
            self._skip()


#: modules whose frames wrap a wait: the park table names the caller's.
_WAIT_WRAPPERS = frozenset({__name__, "repro.core.sync", "threading"})


def _wait_site(frame) -> str:
    """``dir/file.py:line function`` of a parked thread's first frame
    outside the wait wrappers."""
    while frame.f_back is not None and frame.f_globals.get("__name__") in _WAIT_WRAPPERS:
        frame = frame.f_back
    path = "/".join(frame.f_code.co_filename.split("/")[-2:])
    return f"{path}:{frame.f_lineno} {frame.f_code.co_name}"


class Condition:
    """``threading.Condition`` whose waits park on a :class:`VirtualClock`,
    with timeouts in nominal seconds.  ``notify`` marks the waiters it wakes
    runnable before it returns."""

    def __init__(self, clock: VirtualClock, lock=None) -> None:
        self._clock = clock
        self._lock = lock if lock is not None else threading.RLock()
        self.acquire = self._lock.acquire
        self.release = self._lock.release
        # An RLock held recursively is released (and restored) whole.
        self._release_save = getattr(self._lock, "_release_save", self._lock.release)
        self._acquire_restore = getattr(self._lock, "_acquire_restore", None)
        self._is_owned = getattr(self._lock, "_is_owned", self._is_owned)
        self._waiters: deque = deque()

    def _is_owned(self) -> bool:
        # A plain lock: held by someone (``threading.Condition`` checks alike).
        if self._lock.acquire(False):
            self._lock.release()
            return False
        return True

    def __enter__(self):
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)

    def wait(self, timeout: Optional[float] = None, wake_on: Iterable["Event"] = ()) -> bool:
        """Release the lock and park until notified or one of the events
        ``wake_on`` is set (``True``), or until ``timeout`` nominal seconds
        passed (``False``)."""
        if not self._is_owned():
            raise RuntimeError("cannot wait on un-acquired condition")
        clock = self._clock
        if timeout is not None and timeout <= 0:
            return False
        deadline = None if timeout is None else clock.now() + timeout
        park = clock._park(deadline, wake_on)
        self._waiters.append(park)
        saved = self._release_save()
        try:
            clock._block(park, deadline)
        finally:
            if self._acquire_restore is None:
                self._lock.acquire()
            else:
                self._acquire_restore(saved)
            if park.by_timer or wake_on:  # not taken off by a notify
                try:
                    self._waiters.remove(park)
                except ValueError:
                    pass
            for event in wake_on:
                event._detach(park)
        return not park.by_timer

    def wait_for(self, predicate: Callable[[], bool], timeout: Optional[float] = None) -> bool:
        """Wait until ``predicate()`` holds; its last value (``False`` only
        when ``timeout`` nominal seconds passed first)."""
        deadline = None
        result = predicate()
        while not result:
            if timeout is not None:
                if deadline is None:
                    deadline = self._clock.now() + timeout
                elif deadline - self._clock.now() <= 0:
                    break
                self.wait(deadline - self._clock.now())
            else:
                self.wait()
            result = predicate()
        return result

    def notify(self, n: int = 1) -> None:
        """Wake up to ``n`` waiters.  The lock must be held."""
        if not self._is_owned():
            raise RuntimeError("cannot notify on un-acquired condition")
        waiters = self._waiters
        woken = 0
        while waiters and woken < n:
            # A waiter its deadline woke meanwhile takes no notification.
            woken += self._clock._wake(waiters.popleft())

    def notify_all(self) -> None:
        """Wake every waiter.  The lock must be held."""
        if not self._is_owned():
            raise RuntimeError("cannot notify on un-acquired condition")
        waiters, self._waiters = self._waiters, deque()
        if waiters:
            self._clock._wake_all(waiters)


class Event:
    """``threading.Event`` whose waits park on a clock: setting it wakes its
    parked waiters (a :meth:`VirtualClock.sleep` it cancels, or a
    :meth:`wait`) at once.  ``clock`` is needed only to :meth:`wait`: an
    event built without one can cancel a sleep or a transfer, not be
    waited on."""

    __slots__ = ("_clock", "_flag", "_lock", "_parks")

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self._clock = clock
        self._flag = False
        self._lock = allocate_lock()
        self._parks: list = []

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        with self._lock:
            self._flag = True
            parks, self._parks = self._parks, []
        for park in parks:
            park.clock._wake(park)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Park until set (``True``) or ``timeout`` nominal seconds passed."""
        if self._flag:
            return True
        if timeout is not None and timeout <= 0:
            return False
        clock = self._clock
        if clock is None:
            raise RuntimeError("an Event built without a clock cannot be waited on")
        deadline = None if timeout is None else clock.now() + timeout
        park = clock._park(deadline, (self,))
        clock._block(park, deadline)
        self._detach(park)
        return self._flag

    def _attach(self, park: _Park) -> bool:
        """Register ``park`` for the set; ``False`` when already set."""
        with self._lock:
            if self._flag:
                return False
            self._parks.append(park)
            return True

    def _detach(self, park: _Park) -> None:
        with self._lock:
            try:
                self._parks.remove(park)
            except ValueError:
                pass


class Barrier(threading.Barrier):
    """``threading.Barrier`` whose waits park on a clock, with timeouts in
    nominal seconds.  Its logic is the standard library's — the arrival
    index ``wait()`` returns, ``action`` run by the last arrival,
    ``abort()``/``reset()`` and :class:`threading.BrokenBarrierError` — over
    a :class:`Condition` of the clock in place of the raw one."""

    def __init__(
        self,
        clock: VirtualClock,
        parties: int,
        action: Optional[Callable] = None,
        timeout: Optional[float] = None,
    ) -> None:
        super().__init__(parties, action, timeout)
        self._cond = Condition(clock, threading.Lock())


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
