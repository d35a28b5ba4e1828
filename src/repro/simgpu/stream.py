"""CUDA-like streams and events.

A :class:`Stream` is an ordered asynchronous work queue serviced by one
daemon thread — the analogue of a CUDA stream bound to a dedicated copy
engine.  Work items are plain callables; submission returns an
:class:`Event` that can be queried, waited on, and that captures any
exception raised by the work item (re-raised in the waiter, mirroring how
the real runtime surfaces asynchronous CUDA errors).

The checkpoint runtime creates *separate* streams for flushing and
prefetching per direction (Section 4.3.1), so D2H flushes, H2D prefetches
and D2D cache copies all overlap — the simulated :class:`Link` underneath
provides the bandwidth contention.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Optional

from repro.clock import VirtualClock
from repro.errors import TransferError


class Event:
    """Completion handle for one submitted work item."""

    def __init__(self, label: str, clock: VirtualClock) -> None:
        self.label = label
        self._done = clock.event()
        self._error: Optional[BaseException] = None
        self._cancelled = False
        self._callbacks: list = []
        self._cb_lock = threading.Lock()

    def _finish(self, error: Optional[BaseException] = None) -> None:
        self._error = error
        with self._cb_lock:
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def add_done_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the work item completes (immediately if it
        already has).  Callbacks fire on the stream's worker thread — the
        event-driven completion handoff that replaces polling ``query()``
        loops (streamed cascade stages chain on these instead of waiting for
        whole payloads).
        """
        with self._cb_lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def query(self) -> bool:
        """True when the work item has finished (successfully or not)."""
        return self._done.is_set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until completion; re-raise the work item's exception.

        ``timeout`` is in nominal seconds on the stream's clock (used only
        as a watchdog by tests); on timeout a :class:`TransferError` is
        raised.
        """
        if not self._done.wait(timeout):
            raise TransferError(f"timed out waiting for event {self.label!r}")
        if self._error is not None:
            raise self._error


class Stream:
    """An ordered asynchronous work queue with one worker thread, parking on
    ``clock``."""

    def __init__(self, name: str, clock: VirtualClock) -> None:
        self.name = name
        self.clock = clock
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._wakeup = self.clock.condition(self._lock)
        self._closed = False
        self._idle = self.clock.condition(self._lock)
        self._in_flight = 0
        self._thread = threading.Thread(
            target=self.clock.runner(self._run), name=f"stream-{name}", daemon=True
        )
        self._thread.start()

    def submit(self, work: Callable[[], None], label: str = "") -> Event:
        """Enqueue ``work``; it runs after everything previously submitted."""
        event = Event(label or getattr(work, "__name__", "work"), self.clock)
        with self._lock:
            if self._closed:
                raise TransferError(f"stream {self.name!r} is closed")
            self._queue.append((work, event))
            self._in_flight += 1
            self._wakeup.notify()
        return event

    def synchronize(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted work item has completed.

        ``timeout`` is in nominal seconds; returns ``False`` when work is
        still in flight at the deadline (``True`` otherwise, including the
        no-timeout case, which waits indefinitely).
        """
        with self._lock:
            return self._idle.wait_for(lambda: self._in_flight == 0, timeout)

    @property
    def depth(self) -> int:
        """Number of submitted-but-unfinished work items."""
        with self._lock:
            return self._in_flight

    def close(self, drain: bool = True) -> None:
        """Stop accepting work; optionally wait for the queue to drain.

        With ``drain=False`` queued-but-unstarted items are cancelled (their
        events complete with ``cancelled`` set and a :class:`TransferError`).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                while self._queue:
                    _, event = self._queue.popleft()
                    event._cancelled = True
                    event._finish(TransferError(f"stream {self.name!r} closed"))
                    self._in_flight -= 1
                if self._in_flight == 0:
                    self._idle.notify_all()
            self._wakeup.notify()
        self.clock.join(self._thread)

    def _run(self) -> None:
        while True:
            with self._lock:
                self._wakeup.wait_for(lambda: self._queue or self._closed)
                if not self._queue:
                    return  # closed and drained
                work, event = self._queue.popleft()
            error: Optional[BaseException] = None
            try:
                work()
            except BaseException as exc:  # noqa: BLE001 - forwarded to waiter
                error = exc
            event._finish(error)
            with self._lock:
                self._in_flight -= 1
                if self._in_flight == 0:
                    self._idle.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Stream({self.name!r}, depth={self.depth})"
