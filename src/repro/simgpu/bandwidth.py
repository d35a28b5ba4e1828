"""Shared-interconnect bandwidth model.

A :class:`Link` represents one finite-bandwidth resource: a PCIe Gen 4 link
(shared by two GPUs on a DGX-A100), the per-GPU HBM fabric, a node-local
NVMe drive, or a node's share of the parallel file system.

There is one transfer loop (:meth:`Link.transfer`) and it runs over an
*arbiter* that grants the link one span at a time.  The link's own arbiter
(:class:`_FifoArbiter`) is the contention model of the paper's scalability
study: a transfer is split into fixed-size nominal chunks and the chunks of
concurrent transfers interleave through a FIFO mutex, so two steady
concurrent users each observe ~half the link bandwidth while head-of-line
blocking is bounded by one chunk (a link built with a whole-object
``chunk_size`` — the drive, a node's PFS write share — trades that bound for
fewer hand-offs).  A transfer tagged with a QoS request on a link that
carries a :class:`repro.sched.LinkScheduler` is granted by that arbiter
instead (priority/WFQ order, bounded quanta).  The per-transfer ``latency``
models command submission cost and is paid once per transfer, outside the
slot.  A transfer may cross one more link at the same time (``alongside``:
the PFS aggregate beside a node's write share); each span then books its
share on that link's calendar, and the transfer costs the slower of the two
links, not their sum.

The link also keeps running totals (``busy_time``, ``bytes_moved``,
``pending_bytes``), exact after every span, used both for metrics and by the
Score runtime's ``predict_evictable`` estimator (Section 4.2: the estimation
accounts for "other enqueued flushes and prefetches that compete for
bandwidth").
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple, TYPE_CHECKING

from repro.clock import VirtualClock
from repro.errors import ConfigError, TransferError
from repro.util.units import MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.request import TransferRequest
    from repro.sched.scheduler import LinkScheduler


class _FifoArbiter:
    """The link's own arbitration, answering the calls a
    :class:`repro.sched.LinkScheduler` answers: one class, no admission, no
    preemption — whoever reaches the mutex first holds the link for a span."""

    def __init__(self, link: "Link") -> None:
        self._link = link
        self._mutex = threading.Lock()

    def open(self, request, nbytes: int) -> None:
        return None

    def grant_bytes(self, entry, remaining: int) -> int:
        # Adaptive coalescing: when this is the only transfer in flight,
        # interleaving chunks through the mutex buys nothing — move the
        # whole remainder in one span.  Under contention the per-chunk
        # interleave (and its halved-throughput semantics) is preserved.
        link = self._link
        with link._stats_lock:
            alone = link._active == 1
        return remaining if alone else min(remaining, link.chunk_size)

    def acquire(self, entry) -> float:
        if self._mutex.acquire(blocking=False):
            return 0.0  # nobody queued: no wait to measure
        clock = self._link._clock
        queued_at = clock.now()
        self._mutex.acquire()
        return clock.now() - queued_at

    def release(self, entry, served: int) -> None:
        self._mutex.release()

    def finish(self, entry) -> None:
        pass


class Link:
    """A finite-bandwidth interconnect shared by any number of clients."""

    def __init__(
        self,
        name: str,
        bandwidth: float,
        clock: VirtualClock,
        latency: float = 0.0,
        chunk_size: int = 8 * MiB,
    ) -> None:
        if bandwidth <= 0:
            raise ConfigError(f"bandwidth must be positive: {bandwidth}")
        if latency < 0:
            raise ConfigError(f"latency must be non-negative: {latency}")
        if chunk_size <= 0:
            raise ConfigError(f"chunk_size must be positive: {chunk_size}")
        self.name = name
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.chunk_size = int(chunk_size)
        self._clock = clock
        #: optional QoS arbiter (:class:`repro.sched.LinkScheduler`); when
        #: attached, transfers carrying a :class:`TransferRequest` are served
        #: in priority/WFQ order in bounded quanta instead of the FIFO chunk
        #: interleave.  Attached by :class:`repro.sched.SchedContext`.
        self.scheduler: Optional["LinkScheduler"] = None
        self._fifo = _FifoArbiter(self)
        #: optional fault source (:class:`repro.faults.LinkFaultInjector`);
        #: when attached (by :class:`repro.faults.FaultDomain`), transfers
        #: may fail mid-flight with :class:`TransientTransferError` after a
        #: deterministically-drawn fraction of their bytes — the moved
        #: bytes stay charged on the virtual clock and the link stats.
        self.fault_injector = None
        self._stats_lock = threading.Lock()
        self._busy_time = 0.0
        self._bytes_moved = 0
        self._pending_bytes = 0
        self._transfers = 0
        self._active = 0  # transfers currently inside transfer()
        #: end of the last booking made by a transfer crossing alongside.
        self._booked_until = 0.0

    # -- observability ----------------------------------------------------
    @property
    def busy_time(self) -> float:
        """Total nominal seconds this link spent moving bytes."""
        with self._stats_lock:
            return self._busy_time

    @property
    def bytes_moved(self) -> int:
        with self._stats_lock:
            return self._bytes_moved

    @property
    def pending_bytes(self) -> int:
        """Bytes announced (via :meth:`transfer`) but not yet moved."""
        with self._stats_lock:
            return self._pending_bytes

    @property
    def transfer_count(self) -> int:
        with self._stats_lock:
            return self._transfers

    def estimate(self, nbytes: int, include_pending: bool = True) -> float:
        """Nominal seconds to move ``nbytes``, optionally queueing behind
        the bytes already announced on this link."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        backlog = self.pending_bytes if include_pending else 0
        return self.latency + (nbytes + backlog) / self.bandwidth

    # -- the transfer itself ----------------------------------------------
    def transfer(
        self,
        nbytes: int,
        cancelled: Optional[threading.Event] = None,
        request: Optional["TransferRequest"] = None,
        alongside: Optional["Link"] = None,
    ) -> float:
        """Move ``nbytes`` nominal bytes across the link, blocking the
        caller for the (contended) transfer duration.

        Returns the *accounted* nominal duration: submission latency, plus
        bytes over bandwidth, plus the time spent queued behind other
        transfers' spans.  Queue wait is measured only when there was a
        queue — a grant nobody contends for accounts exactly zero — so the
        figure excludes the Python-level bookkeeping around the sleeps,
        which at aggressive ``time_scale`` would otherwise dominate short
        transfers when measured by wall clock.  It is what callers should
        charge to blocking-time metrics.

        If ``cancelled`` is set while bytes remain, raises
        :class:`TransferError` — the flusher uses this to abandon flushes of
        consumed checkpoints (condition (5) of the problem formulation).
        Cancellation is honoured *before any progress is made* (including
        the latency span and zero-byte transfers), so an already-cancelled
        transfer aborts immediately; a span it cuts short moved no bytes.

        The link is granted span by span by an arbiter: the attached
        :class:`repro.sched.LinkScheduler` when the caller tags the transfer
        with a ``request`` (whose cancellation event then also cancels this
        transfer: preemption), the FIFO chunk interleave otherwise.
        Admission (``open``, which may shed or block) runs before any bytes
        are announced as pending, so a shed transfer never perturbs the
        flush/prefetch estimator that reads ``pending_bytes``.

        ``alongside`` names a link the same bytes cross at the same time —
        a cut-through route, such as a node's PFS write share and the file
        system's aggregate.  That link is a shared *rate*, not a slot: each
        span books its share (``span / alongside.bandwidth``) on the link's
        calendar behind what earlier spans booked there, and lasts until the
        slower of this link's share and the booking has crossed.  So a lone
        transfer accounts ``latency + nbytes / min(bandwidth)``, not the sum
        of the two links, while the shared link still carries every byte and
        still caps every route through it.  Its latency is not charged; its
        stats move with this link's; a fault drawn on it fails the transfer
        like this link's own; a cancelled span gives its booking back.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if request is not None and cancelled is None:
            cancelled = request.cancel_event
        if cancelled is not None and cancelled.is_set():
            # Zero-progress abort: no pending-byte accounting to undo.
            raise self._cancelled(nbytes)
        fail_after = None
        faulty = self
        if self.fault_injector is not None and nbytes > 0:
            fail_after = self.fault_injector.draw(nbytes)
        if alongside is not None and alongside.fault_injector is not None and nbytes > 0:
            drawn = alongside.fault_injector.draw(nbytes)
            if drawn is not None and (fail_after is None or drawn < fail_after):
                fail_after, faulty = drawn, alongside
        arbiter = self.scheduler
        if arbiter is None or request is None:
            arbiter = self._fifo
        entry = arbiter.open(request, nbytes)
        with self._stats_lock:
            self._pending_bytes += nbytes
            self._transfers += 1
            self._active += 1
        if alongside is not None:
            alongside._account(0, -nbytes)
        remaining = nbytes
        accounted = 0.0
        sleep = self._clock.sleep
        try:
            if self.latency:
                if sleep(self.latency, cancelled):
                    raise self._cancelled(nbytes)
                accounted += self.latency
            per_byte = 1.0 / self.bandwidth
            while remaining > 0:
                if cancelled is not None and cancelled.is_set():
                    raise self._cancelled(nbytes)
                moved = nbytes - remaining
                if fail_after is not None and moved >= fail_after:
                    raise faulty.fault_injector.fault(nbytes, moved)
                span = arbiter.grant_bytes(entry, remaining)
                if fail_after is not None:
                    span = min(span, fail_after - moved)
                busy = span * per_byte
                accounted += arbiter.acquire(entry)  # raises TransferError when cancelled
                served = 0
                try:
                    pace = busy
                    if alongside is not None:  # the slower of the two sets the pace
                        until, booked = alongside._book(span)
                        pace = max(busy, booked)
                    if sleep(pace, cancelled):
                        if alongside is not None:
                            alongside._unbook(until, span)
                        raise self._cancelled(nbytes)
                    served = span
                    # Stats move with the bytes, while the slot is held.
                    with self._stats_lock:
                        self._busy_time += busy
                        self._bytes_moved += span
                        self._pending_bytes -= span
                    if alongside is not None:
                        alongside._account(span, span)
                    remaining -= span
                    accounted += pace
                finally:
                    arbiter.release(entry, served)
        finally:
            arbiter.finish(entry)
            with self._stats_lock:
                self._active -= 1
                self._pending_bytes -= remaining  # unmoved (cancelled, faulted)
            if alongside is not None:
                alongside._account(0, remaining)
        return accounted

    # -- a link crossed alongside another: a shared rate, not a slot --------
    def _book(self, nbytes: int) -> Tuple[float, float]:
        """Book ``nbytes`` of this link's time behind every earlier booking;
        returns the booking's end and the seconds from now until then."""
        now = self._clock.now()
        with self._stats_lock:
            self._booked_until = max(now, self._booked_until) + nbytes / self.bandwidth
            return self._booked_until, self._booked_until - now

    def _unbook(self, until: float, nbytes: int) -> None:
        """Give back the part of a booking a cancelled span never crossed,
        as long as no later booking queued behind it."""
        now = self._clock.now()
        with self._stats_lock:
            if self._booked_until == until:
                self._booked_until = max(now, until - nbytes / self.bandwidth)

    def _account(self, moved: int, settled: int) -> None:
        """``moved`` bytes crossed; ``settled`` bytes leave the pending count."""
        with self._stats_lock:
            self._busy_time += moved / self.bandwidth
            self._bytes_moved += moved
            self._pending_bytes -= settled

    def _cancelled(self, nbytes: int) -> TransferError:
        return TransferError(f"transfer of {nbytes} bytes on link {self.name!r} cancelled")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Link({self.name!r}, {self.bandwidth:.3g} B/s)"
