"""Per-link QoS arbitration: priority, fair queuing, preemption.

One :class:`LinkScheduler` arbitrates one shared
:class:`~repro.simgpu.bandwidth.Link`.  A scheduled transfer is served in
*quanta* (at most ``SchedConfig.quantum_bytes`` per grant); between quanta
the link is re-arbitrated, so the lattice of
:class:`~repro.sched.request.TransferClass` is enforced at quantum
granularity:

* **strict priority across classes** — a demand read arriving behind ten
  queued cascade flushes is granted the very next quantum, bounding its
  head-of-line wait to one quantum instead of the whole backlog;
* **fair queuing within a class** — concurrent engines sharing a link
  split its bandwidth equally (start-time fair queuing over per-flow
  virtual finish tags, with idle flows re-entering at the live virtual
  time so they cannot hoard credit);
* **EDF pacing inside the prefetch classes** — equal-vtime prefetches are
  ordered by the deadline derived from their restore-queue distance, so
  near-future hints land before far-future speculation;
* **preemption** — an arriving demand read fires the cancellation event of
  every active or queued speculative prefetch on the link, reclaiming the
  slot immediately (mid-quantum) instead of after the quantum completes.

Every transfer is admitted: backpressure comes from the caches, whose
capacity holds ``checkpoint()`` in its GPU-cache reservation and a
prefetch in its budget, not from a queue bound here.

The scheduler has its own mutex (never held across a sleep); it nests
inside :meth:`Link.transfer` and takes no engine monitor, so lock ordering
stays trivially acyclic.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.clock import Event, VirtualClock
from repro.config import SchedConfig
from repro.errors import TransferError
from repro.sched.request import TransferClass, TransferRequest
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.simgpu.bandwidth import Link


class _Entry:
    """One transfer's seat in the arbiter (created by :meth:`open`)."""

    __slots__ = ("request", "nbytes", "seq", "flow", "waiting", "opened_at", "first_grant_wait")

    def __init__(self, request: TransferRequest, nbytes: int, seq: int, opened_at: float) -> None:
        self.request = request
        self.nbytes = nbytes
        self.seq = seq
        self.flow = (int(request.tclass), request.engine_id)
        self.waiting = False  # parked in acquire(), wanting the slot
        self.opened_at = opened_at
        self.first_grant_wait: Optional[float] = None


class LinkScheduler:
    """QoS arbiter for one shared link."""

    def __init__(
        self,
        link: "Link",
        config: SchedConfig,
        clock: VirtualClock,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.link = link
        self.config = config
        self.clock = clock
        self.telemetry = telemetry or Telemetry.disabled()
        self.quantum = max(1, config.quantum_bytes)
        self._cond = clock.condition()
        self._entries: List[_Entry] = []  # every open transfer, arrival order
        self._current: Optional[_Entry] = None  # entry holding the slot
        self._seq = itertools.count()
        #: per-flow WFQ virtual finish tags and per-class virtual clocks.
        self._vft: Dict[Tuple[int, int], float] = {}
        self._class_vtime: Dict[int, float] = {}
        # counters (scheduler mutex held for writes; reads are diagnostics)
        self.preemptions = 0
        self.grants = 0
        self._track = f"sched-{link.name}"
        registry = self.telemetry.registry
        self._m_depth = registry.gauge(f"sched.{link.name}.depth")
        self._m_preempt = registry.counter("sched.preemptions")
        self._m_wait = registry.histogram(f"sched.{link.name}.first_grant_wait_s")
        self._m_served = {
            cls: registry.counter(f"sched.class.{cls.name.lower()}.served")
            for cls in TransferClass
        }

    # -- lifecycle of one transfer ------------------------------------------
    def open(self, request: TransferRequest, nbytes: int) -> _Entry:
        """Admit a transfer; returns its arbiter entry.

        Fires preemption when a demand read arrives over active speculation.
        """
        bus = self.telemetry.bus
        with self._cond:
            entry = _Entry(request, nbytes, next(self._seq), self.clock.now())
            self._flow_enter(entry)
            self._entries.append(entry)
            self._m_depth.set(len(self._entries))
            if bus.enabled:
                # Stamped when the entry queued; ``_name_`` is what the
                # enum's ``name`` property returns, read without the call.
                bus.record(
                    "sched-queue", self._track, entry.opened_at, "i", 0.0,
                    {"engine": request.engine_id, "cls": request.tclass._name_,
                     "depth": len(self._entries)},
                )
            if request.tclass is TransferClass.DEMAND_READ:
                self._preempt_speculative()
            self._cond.notify_all()
        return entry

    def grant_bytes(self, entry: _Entry, remaining: int) -> int:
        """Bytes the next grant to ``entry`` may carry: one quantum."""
        return min(remaining, self.quantum)

    def acquire(self, entry: _Entry) -> float:
        """Block until ``entry`` is granted the link slot; returns the
        nominal seconds it spent parked (exactly 0.0 when granted at once).

        Raises :class:`TransferError` when the entry's cancellation event
        fires while it waits — this is what makes a preempted (or abandoned)
        transfer abort with *zero* further progress.
        """
        cancel = entry.request.cancel_event
        parked_at: Optional[float] = None
        with self._cond:
            entry.waiting = True
            try:
                while True:
                    if cancel.is_set():
                        raise TransferError(
                            f"transfer on link {self.link.name!r} cancelled while "
                            f"queued ({entry.request.tclass.name})"
                        )
                    if self._current is None and self._choose() is entry:
                        self._current = entry
                        entry.waiting = False
                        self.grants += 1
                        if entry.first_grant_wait is None:
                            entry.first_grant_wait = self.clock.now() - entry.opened_at
                            self._m_wait.observe(entry.first_grant_wait)
                            if (
                                entry.request.op_id is not None
                                and entry.first_grant_wait > 0
                            ):
                                # Causal refinement: the queueing share of a
                                # transfer that would otherwise all charge
                                # to its enclosing transfer span.
                                self.telemetry.bus.record(
                                    "sched-wait", self._track, entry.opened_at, "X",
                                    entry.first_grant_wait,
                                    {"cls": entry.request.tclass._name_},
                                    entry.request.op_id, None, "queue",
                                )
                        return 0.0 if parked_at is None else self.clock.now() - parked_at
                    if parked_at is None:
                        parked_at = self.clock.now()
                    # Every open, release and finish notifies; a cancel wakes
                    # its own waiter.
                    self._cond.wait(None, (cancel,))
            except BaseException:
                entry.waiting = False
                raise

    def release(self, entry: _Entry, span_bytes: int) -> None:
        """Return the slot after serving ``span_bytes`` of ``entry``."""
        with self._cond:
            if self._current is entry:
                self._current = None
            if span_bytes > 0:
                self._charge(entry, span_bytes)
            self._cond.notify_all()

    def finish(self, entry: _Entry) -> None:
        """Deregister a transfer (normal completion or abort)."""
        with self._cond:
            if self._current is entry:
                self._current = None
            try:
                self._entries.remove(entry)
            except ValueError:
                pass
            self._m_served[entry.request.tclass].inc()
            self._m_depth.set(len(self._entries))
            self._cond.notify_all()

    # -- arbitration (condition held) ---------------------------------------
    def _flow_enter(self, entry: _Entry) -> None:
        """Start-tag catch-up: an idle flow re-enters at the class's live
        virtual time instead of the stale tag it finished with, so idling
        earns no credit and a returning flow cannot starve the others."""
        flow = entry.flow
        cls = flow[0]
        active = [
            self._vft.get(e.flow, 0.0)
            for e in self._entries
            if e.flow[0] == cls and e.flow != flow
        ]
        floor = min(active) if active else self._class_vtime.get(cls, 0.0)
        self._vft[flow] = max(self._vft.get(flow, 0.0), floor)

    def _charge(self, entry: _Entry, span_bytes: int) -> None:
        flow = entry.flow
        vft = self._vft.get(flow, 0.0) + span_bytes
        self._vft[flow] = vft
        cls = flow[0]
        self._class_vtime[cls] = max(self._class_vtime.get(cls, 0.0), vft)

    def _choose(self) -> Optional[_Entry]:
        """The entry the next quantum belongs to (None = none waiting).

        Pure selection — every parked waiter re-runs it on wake-up, so it
        must not mutate arbiter state.
        """
        best: Optional[_Entry] = None
        best_key: Optional[tuple] = None
        for entry in self._entries:
            if not entry.waiting or entry.request.cancel_event.is_set():
                continue
            req = entry.request
            deadline = req.deadline if req.deadline is not None else float("inf")
            key = (int(req.tclass), self._vft.get(entry.flow, 0.0), deadline, entry.seq)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        return best

    def _preempt_speculative(self) -> None:
        bus = self.telemetry.bus
        for entry in self._entries:
            req = entry.request
            if req.preemptible and not req.cancel_event.is_set():
                req.cancel_event.set()
                self.preemptions += 1
                self._m_preempt.inc()
                if bus.enabled:
                    bus.instant(
                        "sched-preempt", self._track,
                        engine=req.engine_id, cls=req.tclass.name,
                        in_flight=self._current is entry,
                    )

    # -- diagnostics ---------------------------------------------------------
    def depth(self) -> int:
        with self._cond:
            return len(self._entries)

    def snapshot(self) -> dict:
        """Queue state for stall diagnostics and the ``--sched`` dump."""
        with self._cond:
            per_class: Dict[str, int] = {}
            for entry in self._entries:
                name = entry.request.tclass.name
                per_class[name] = per_class.get(name, 0) + 1
            current = None
            if self._current is not None:
                current = {
                    "class": self._current.request.tclass.name,
                    "engine": self._current.request.engine_id,
                    "bytes": self._current.nbytes,
                }
            return {
                "link": self.link.name,
                "depth": len(self._entries),
                "by_class": per_class,
                "in_flight": current,
                "grants": self.grants,
                "preemptions": self.preemptions,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinkScheduler({self.link.name!r}, depth={self.depth()})"


class SchedContext:
    """One simulation's scheduler fleet: attaches arbiters to shared links
    and aggregates their diagnostics.  With ``config.enabled=False`` it
    attaches nothing and every link keeps its FIFO behaviour."""

    def __init__(
        self,
        config: SchedConfig,
        clock: VirtualClock,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.telemetry = telemetry or Telemetry.disabled()
        self._schedulers: List[LinkScheduler] = []
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def request(
        self, tclass: TransferClass, engine_id: int, *, deadline=None, cancel_event=None,
        op_id=None,
    ) -> Optional[TransferRequest]:
        """The one factory of QoS tags: a :class:`TransferRequest` on the
        flow of ``engine_id``, or ``None`` when scheduling is off (untagged
        transfers take the link's own FIFO arbiter).  ``op_id`` ties the
        transfer's queue wait to its operation's span DAG."""
        if not self.config.enabled:
            return None
        return TransferRequest(
            tclass, engine_id=engine_id, deadline=deadline,
            cancel_event=cancel_event or Event(), op_id=op_id,
        )

    def stall_report(self) -> str:
        """A flush stall report's line on the arbiters: the queues not empty."""
        stalled = [s for s in self.snapshot() if s["depth"]]
        return f"scheduler queues {stalled or 'all empty'}"

    def attach(self, link: "Link") -> None:
        """Arbitrate ``link`` (no-op when scheduling is disabled)."""
        if not self.config.enabled or link.scheduler is not None:
            return
        scheduler = LinkScheduler(link, self.config, self.clock, self.telemetry)
        link.scheduler = scheduler
        with self._lock:
            self._schedulers.append(scheduler)

    def schedulers(self) -> List[LinkScheduler]:
        with self._lock:
            return list(self._schedulers)

    def snapshot(self) -> List[dict]:
        """Per-link queue snapshots (for diagnostics; empty when disabled)."""
        return [s.snapshot() for s in self.schedulers()]
