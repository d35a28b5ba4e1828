"""Per-tier health tracking: circuit breakers over store endpoints.

Each durable endpoint (``node{j}-ssd``, ``pfs``) gets a
:class:`CircuitBreaker` keyed by its telemetry track name.  The breaker is
a classic three-state machine:

* ``CLOSED`` — healthy; failures are counted, successes reset the count.
* ``OPEN`` — after ``BREAKER_THRESHOLD`` *consecutive* failures the tier is
  blacklisted: ``allow()`` returns ``False`` and the flush cascade reroutes
  around it.  Opened-at is stamped on the **virtual** clock.
* ``HALF_OPEN`` — once ``BREAKER_RESET_S`` nominal seconds elapse, a single
  probe operation is admitted; success closes the breaker, failure re-opens
  it and restarts the cool-down.  A backfill's catch-up copy probes as a
  *yielding* probe: a flush that finds one in flight takes the probe over
  instead of rerouting a write meant for a tier that may have healed.

State transitions are emitted on the trace bus (track ``resilience``) so a
Perfetto timeline shows exactly when a tier went dark and when it healed.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.telemetry import Telemetry

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"
#: consecutive failures that trip a tier's circuit breaker open.
BREAKER_THRESHOLD = 3
#: nominal seconds an open breaker waits before admitting one half-open
#: probe.
BREAKER_RESET_S = 5.0


class CircuitBreaker:
    """Three-state breaker for one tier endpoint, timed on the virtual clock."""

    def __init__(self, name: str, clock, telemetry: Optional[Telemetry] = None) -> None:
        self.name = name
        self.clock = clock
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        #: the probe in flight is a yielding one (a flush may take it over).
        self._probe_yields = False
        self.opens = 0
        self._m_opens = (
            telemetry.registry.counter("resilience.breaker_opens")
            if telemetry is not None
            else None
        )

    def _emit(self, event: str) -> None:
        if self.telemetry is not None:
            self.telemetry.bus.instant(
                event, track="resilience", tier=self.name,
                state=self._state, failures=self._failures,
            )

    @property
    def state(self) -> str:
        return self._state  # one attribute read: atomic, no lock needed

    def allow(self, yielding: bool = False) -> bool:
        """Whether an operation against this tier should be attempted now.

        In ``OPEN`` state this returns ``False`` until the cool-down
        elapses, then admits exactly one half-open probe at a time — save
        that a non-``yielding`` caller takes over a ``yielding`` probe in
        flight (both then feed the verdict; the first closes or re-opens).
        """
        if self._state == CLOSED:  # the healthy path takes no lock
            return True
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self.clock.now() - self._opened_at < BREAKER_RESET_S:
                    return False
                self._state = HALF_OPEN
                self._emit("breaker-probe")
            elif self._probe_inflight and (yielding or not self._probe_yields):
                return False  # HALF_OPEN: one probe at a time
            self._probe_inflight = True
            self._probe_yields = yielding
            return True

    def record_success(self) -> None:
        if self._state == CLOSED and not self._failures:
            return  # nothing to reset: the healthy path takes no lock
        with self._lock:
            self._failures = 0
            self._probe_inflight = False
            if self._state != CLOSED:
                self._state = CLOSED
                self._emit("breaker-close")

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probe_inflight = False
            if self._state == HALF_OPEN or (
                self._state == CLOSED and self._failures >= BREAKER_THRESHOLD
            ):
                self._state = OPEN
                self._opened_at = self.clock.now()
                self.opens += 1
                if self._m_opens is not None:
                    self._m_opens.inc()
                self._emit("breaker-open")

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "failures": self._failures,
                "opens": self.opens,
            }


class HealthRegistry:
    """Lazily-built map of tier endpoint name -> :class:`CircuitBreaker`."""

    def __init__(self, clock, telemetry: Optional[Telemetry] = None) -> None:
        self.clock = clock
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, name: str) -> CircuitBreaker:
        brk = self._breakers.get(name)  # a known endpoint takes no lock
        if brk is None:
            with self._lock:
                brk = self._breakers.setdefault(
                    name, CircuitBreaker(name, self.clock, self.telemetry)
                )
        return brk

    def allow(self, name: str, yielding: bool = False) -> bool:
        """Gate a write/flush against ``name`` (consumes half-open probes;
        ``yielding``: a probe a flush may take over)."""
        return self.breaker(name).allow(yielding)

    def healthy(self, name: str) -> bool:
        """Read-side check: ``False`` only while the breaker is OPEN.

        Unlike :meth:`allow` this never consumes a half-open probe slot, so
        read routing cannot starve the write-side probe.
        """
        return self.breaker(name).state != OPEN

    def success(self, name: str) -> None:
        self.breaker(name).record_success()

    def failure(self, name: str) -> None:
        self.breaker(name).record_failure()

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            breakers = list(self._breakers.items())
        return {name: brk.snapshot() for name, brk in breakers}
