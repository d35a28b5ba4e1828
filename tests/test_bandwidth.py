"""Link (shared bandwidth) behaviour.

``Link.transfer`` is one loop over an arbiter, so the cases that state the
link contract run under both: each is a test of its own under the link's
FIFO arbiter (an untagged transfer), and runs again tagged on a link that
carries a ``LinkScheduler`` through
``test_contract_holds_on_a_scheduled_link``.
"""

import inspect
import sys
import threading

import pytest

from repro.clock import VirtualClock
from repro.config import SchedConfig
from repro.errors import ConfigError, TransferError, TransientTransferError
from repro.sched.request import TransferClass, TransferRequest
from repro.sched.scheduler import LinkScheduler
from repro.simgpu.bandwidth import Link
from repro.util.units import MiB


@pytest.fixture
def clock():
    return VirtualClock(time_scale=0.001)


class Fifo:
    """Untagged transfers: the link's own FIFO arbiter."""

    @staticmethod
    def link(clock, chunk_size=8 * MiB, **kwargs):
        return Link("t", clock=clock, chunk_size=chunk_size, **kwargs)

    @staticmethod
    def tag(cancelled=None):
        return {"cancelled": cancelled}


class Scheduled:
    """Tagged transfers on a link with a scheduler (quantum = chunk)."""

    @staticmethod
    def link(clock, chunk_size=8 * MiB, **kwargs):
        link = Fifo.link(clock, chunk_size, **kwargs)
        config = SchedConfig(enabled=True, quantum_bytes=chunk_size)
        link.scheduler = LinkScheduler(link, config, clock)
        return link

    @staticmethod
    def tag(cancelled=None):
        request = TransferRequest(TransferClass.DEMAND_READ)
        if cancelled is not None:
            request.cancel_event = cancelled
        return {"request": request}


both_arbiters = pytest.mark.parametrize("arbiter", [Fifo, Scheduled], ids=["fifo", "scheduled"])

#: the link-contract cases (``case([clock,] arbiter=Fifo)``).
CONTRACT = []


def link_contract(case):
    CONTRACT.append(case)
    return case


@link_contract
def test_transfer_duration_accounted(clock, arbiter=Fifo):
    link = arbiter.link(clock, bandwidth=100 * MiB, latency=0.0)
    seconds = link.transfer(50 * MiB, **arbiter.tag())
    assert seconds == pytest.approx(0.5, rel=0.05)


@link_contract
def test_latency_added_once(clock, arbiter=Fifo):
    link = arbiter.link(clock, bandwidth=100 * MiB, latency=0.25)
    seconds = link.transfer(25 * MiB, **arbiter.tag())
    assert seconds == pytest.approx(0.5, rel=0.05)


@link_contract
def test_zero_bytes_costs_latency_only(clock, arbiter=Fifo):
    link = arbiter.link(clock, bandwidth=100 * MiB, latency=0.1)
    assert link.transfer(0, **arbiter.tag()) == pytest.approx(0.1, rel=0.2)


def test_negative_bytes_rejected(clock):
    link = Link("t", bandwidth=100 * MiB, clock=clock)
    with pytest.raises(ValueError):
        link.transfer(-1)


@link_contract
def test_stats_accumulate(clock, arbiter=Fifo):
    link = arbiter.link(clock, bandwidth=100 * MiB)
    link.transfer(10 * MiB, **arbiter.tag())
    link.transfer(20 * MiB, **arbiter.tag())
    assert link.bytes_moved == 30 * MiB
    assert link.transfer_count == 2
    assert link.busy_time == pytest.approx(0.3, rel=0.05)
    assert link.pending_bytes == 0


def test_estimate_includes_backlog(clock):
    link = Link("t", bandwidth=100 * MiB, clock=clock, latency=0.0)
    base = link.estimate(100 * MiB)
    assert base == pytest.approx(1.0)
    with link._stats_lock:
        link._pending_bytes += 100 * MiB
    assert link.estimate(100 * MiB) == pytest.approx(2.0)
    assert link.estimate(100 * MiB, include_pending=False) == pytest.approx(1.0)


def test_contention_halves_throughput():
    clock = VirtualClock(time_scale=0.01)
    link = Link("t", bandwidth=100 * MiB, clock=clock, chunk_size=1 * MiB)
    barrier = threading.Barrier(2)
    results = []

    def worker():
        barrier.wait()
        # 10 s virtual = 100 ms wall: long enough that OS scheduling jitter
        # cannot accidentally serialize the two transfers.
        results.append(link.transfer(1000 * MiB))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Two concurrent 10 s transfers share the link: fairness of the split
    # depends on lock scheduling, but whoever loses pays for the winner's
    # chunks — at least one transfer must observe clear slowdown, and
    # neither can beat its solo time.
    assert max(results) > 13.0
    for seconds in results:
        assert seconds >= 9.5


@link_contract
def test_cancellation_raises_and_releases_pending(clock, arbiter=Fifo):
    link = arbiter.link(clock, bandwidth=1 * MiB, chunk_size=64 * 1024)
    cancelled = threading.Event()
    cancelled.set()
    with pytest.raises(TransferError):
        link.transfer(10 * MiB, **arbiter.tag(cancelled))
    assert link.pending_bytes == 0


@link_contract
def test_zero_progress_cancellation_before_any_accounting(clock, arbiter=Fifo):
    """An already-cancelled transfer aborts before *any* progress: no
    latency is paid, no pending bytes are announced, no transfer counted —
    even for zero-byte transfers (regression: the old check lived inside
    the chunk loop, so it only fired once chunks remained)."""
    link = arbiter.link(clock, bandwidth=100 * MiB, latency=0.5)
    cancelled = threading.Event()
    cancelled.set()
    sleeps = []
    sleep = clock.sleep
    clock.sleep = lambda *args, **kwargs: sleeps.append(args) or sleep(*args, **kwargs)
    with pytest.raises(TransferError):
        link.transfer(0, **arbiter.tag(cancelled))
    with pytest.raises(TransferError):
        link.transfer(10 * MiB, **arbiter.tag(cancelled))
    assert link.pending_bytes == 0
    assert link.transfer_count == 0  # never admitted
    assert link.bytes_moved == 0
    assert link.busy_time == 0.0
    # The 0.5 s submission latency was never slept (nor any span).
    assert sleeps == []


def test_request_cancel_event_aborts_with_zero_progress(clock):
    """A request's cancellation event doubles as the ``cancelled`` channel
    and honours the same zero-progress abort."""
    link = Link("t", bandwidth=100 * MiB, clock=clock, latency=0.5)
    request = TransferRequest(TransferClass.SPECULATIVE_PREFETCH)
    request.cancel_event.set()
    with pytest.raises(TransferError):
        link.transfer(10 * MiB, request=request)
    assert link.transfer_count == 0
    assert link.pending_bytes == 0


@link_contract
def test_mid_transfer_cancellation(arbiter=Fifo):
    clock = VirtualClock(time_scale=0.01)
    link = arbiter.link(clock, bandwidth=10 * MiB, chunk_size=1 * MiB)
    cancelled = threading.Event()
    errors = []
    started = threading.Event()

    def worker():
        started.set()
        try:
            link.transfer(1000 * MiB, **arbiter.tag(cancelled))  # 100 s virtual
        except TransferError as exc:
            errors.append(exc)

    t = threading.Thread(target=worker)
    t.start()
    started.wait(timeout=5)
    clock.sleep(1.0)
    cancelled.set()
    t.join(timeout=10)
    assert errors, "transfer should have been cancelled"
    assert link.pending_bytes == 0


@pytest.mark.parametrize("case", CONTRACT, ids=lambda case: case.__name__)
def test_contract_holds_on_a_scheduled_link(case, clock):
    kwargs = {"clock": clock} if "clock" in inspect.signature(case).parameters else {}
    case(arbiter=Scheduled, **kwargs)


class _FaultAfter:
    """A fault injector that fails every transfer after ``prefix`` bytes."""

    def __init__(self, prefix):
        self.prefix = prefix

    def draw(self, nbytes):
        return self.prefix

    def fault(self, nbytes, moved):
        return TransientTransferError(f"injected after {moved}/{nbytes}", bytes_moved=moved)


@both_arbiters
def test_injected_fault_moves_exactly_the_drawn_prefix(clock, arbiter):
    """A mid-transfer fault charges the drawn prefix — not a span more — and
    announces nothing it did not move.  (Passes at the parent of the
    one-loop change too: nothing stated it for either loop before.)"""
    prefix = 3 * MiB + 17  # inside the fourth chunk/quantum
    link = arbiter.link(clock, bandwidth=100 * MiB, chunk_size=1 * MiB)
    link.fault_injector = _FaultAfter(prefix)
    with pytest.raises(TransientTransferError) as err:
        link.transfer(10 * MiB, **arbiter.tag())
    assert err.value.bytes_moved == prefix
    assert link.bytes_moved == prefix
    assert link.busy_time == pytest.approx(prefix / (100 * MiB))
    assert link.pending_bytes == 0
    if link.scheduler is not None:
        assert link.scheduler.depth() == 0  # finish() ran


@both_arbiters
def test_pending_bytes_exact_after_every_span(clock, arbiter):
    """``pending_bytes`` falls span by span while a contended transfer runs
    (it feeds the runtime's flush/prefetch estimator).  Fails at the parent
    of the one-loop change, whose loops settled stats every eighth chunk."""
    link = arbiter.link(clock, bandwidth=1000 * MiB, chunk_size=1 * MiB)
    with link._stats_lock:
        link._active += 1  # another transfer in flight: FIFO spans are chunks
    seen = []
    real_sleep = clock.sleep

    def sleep(*args):
        seen.append(link.pending_bytes)  # read as each span starts
        return real_sleep(*args)

    clock.sleep = sleep
    link.transfer(16 * MiB, **arbiter.tag())
    assert seen == [(16 - i) * MiB for i in range(16)]
    assert link.pending_bytes == 0


def test_invalid_construction():
    clock = VirtualClock(0.001)
    with pytest.raises(ConfigError):
        Link("t", bandwidth=0, clock=clock)
    with pytest.raises(ConfigError):
        Link("t", bandwidth=1, clock=clock, latency=-1)
    with pytest.raises(ConfigError):
        Link("t", bandwidth=1, clock=clock, chunk_size=0)


def test_serialized_link_whole_object():
    """chunk_size larger than any transfer serializes whole objects."""
    clock = VirtualClock(time_scale=0.01)
    link = Link("ssd", bandwidth=100 * MiB, clock=clock, chunk_size=1 << 62)
    barrier = threading.Barrier(3)
    durations = []
    lock = threading.Lock()

    def worker():
        barrier.wait()
        seconds = link.transfer(100 * MiB)
        with lock:
            durations.append(seconds)

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    durations.sort()
    # Serialized completions stream out: ~1 s, ~2 s, ~3 s.
    assert durations[0] == pytest.approx(1.0, rel=0.4)
    assert durations[-1] == pytest.approx(3.0, rel=0.4)


# -- cut-through: a link crossed alongside --------------------------------------
# A transfer's bytes may cross one more link at the same time (a PFS write:
# a node's share and the file system's aggregate).  A lone transfer costs the
# slower link, not the sum; a shared link crossed alongside still carries
# every byte and still caps every route through it.


@both_arbiters
def test_alongside_costs_the_slower_link_not_the_sum(clock, arbiter):
    head = arbiter.link(clock, bandwidth=100 * MiB, latency=0.1)
    aggregate = Link("agg", bandwidth=200 * MiB, clock=clock, latency=0.05)
    seconds = head.transfer(50 * MiB, alongside=aggregate, **arbiter.tag())
    assert seconds == 0.1 + 0.5  # the head's latency and share; one after the other: 0.9
    assert (head.busy_time, aggregate.busy_time) == (0.5, 0.25)
    assert (head.transfer_count, aggregate.transfer_count) == (1, 0)  # nothing ran *on* it
    for link in (head, aggregate):
        assert link.bytes_moved == 50 * MiB
        assert link.pending_bytes == 0


def test_a_slower_link_alongside_sets_the_pace(clock):
    head = Link("node", bandwidth=200 * MiB, clock=clock)
    aggregate = Link("agg", bandwidth=100 * MiB, clock=clock)
    assert head.transfer(50 * MiB, alongside=aggregate) == pytest.approx(0.5)
    assert (head.busy_time, aggregate.busy_time) == (0.25, 0.5)


def test_a_shared_link_alongside_caps_every_route_through_it():
    """Four node links, one aggregate as fast as one of them: four concurrent
    transfers queue on the aggregate's calendar, so the last one needs the
    aggregate's time for all four — not the 0.5 s each would take alone."""
    clock = VirtualClock(time_scale=0.01)
    aggregate = Link("agg", bandwidth=100 * MiB, clock=clock)
    nodes = [Link(f"node{i}", bandwidth=100 * MiB, clock=clock) for i in range(4)]
    barrier = threading.Barrier(4)
    results = []

    def worker(node):
        barrier.wait()
        results.append(node.transfer(50 * MiB, alongside=aggregate))

    threads = [threading.Thread(target=worker, args=(node,)) for node in nodes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert max(results) >= 0.95 * 2.0
    assert aggregate.bytes_moved == 200 * MiB
    assert aggregate.busy_time == pytest.approx(2.0)
    assert aggregate.pending_bytes == 0


def test_a_fault_drawn_alongside_fails_the_transfer_at_its_prefix(clock):
    prefix = 3 * MiB + 17
    head = Link("node", bandwidth=100 * MiB, clock=clock, chunk_size=1 * MiB)
    aggregate = Link("agg", bandwidth=200 * MiB, clock=clock)
    aggregate.fault_injector = _FaultAfter(prefix)
    with pytest.raises(TransientTransferError) as err:
        head.transfer(10 * MiB, alongside=aggregate)
    assert err.value.bytes_moved == prefix
    for link in (head, aggregate):
        assert link.bytes_moved == prefix
        assert link.pending_bytes == 0


def test_a_cancelled_transfer_announces_nothing_alongside(clock):
    head = Link("node", bandwidth=100 * MiB, clock=clock)
    aggregate = Link("agg", bandwidth=200 * MiB, clock=clock)
    cancelled = threading.Event()
    cancelled.set()
    with pytest.raises(TransferError):
        head.transfer(10 * MiB, cancelled=cancelled, alongside=aggregate)
    assert aggregate.pending_bytes == 0
    assert aggregate._booked_until == 0.0


def test_a_cancelled_span_gives_its_booking_back():
    """A span cut short leaves no phantom time on the calendar: after a
    transfer is cancelled mid-span, a lone transfer on another node's link
    costs its own share, not a wait behind bytes that never crossed."""
    clock = VirtualClock(time_scale=0.01)
    aggregate = Link("agg", bandwidth=100 * MiB, clock=clock)
    first = Link("node0", bandwidth=100 * MiB, clock=clock)
    second = Link("node1", bandwidth=100 * MiB, clock=clock)
    cancelled = threading.Event()
    errors = []

    def worker():
        try:
            first.transfer(1000 * MiB, cancelled=cancelled, alongside=aggregate)  # 10 s virtual
        except TransferError as exc:
            errors.append(exc)

    thread = threading.Thread(target=worker)
    thread.start()
    clock.sleep(1.0)
    cancelled.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert errors, "transfer should have been cancelled"
    assert second.transfer(10 * MiB, alongside=aggregate) == pytest.approx(0.1, rel=0.05)
    assert aggregate.bytes_moved == second.bytes_moved == 10 * MiB
    assert aggregate.pending_bytes == 0


def test_bookings_from_many_threads_lose_no_time():
    """Every booking lands on the calendar: with more threads than cores
    and a tiny switch interval, the calendar still ends the summed shares
    after the first booking (a lost read-modify-write would end it early).
    The clock all but stands still, so every booking queues."""
    clock = VirtualClock(time_scale=1000)  # one virtual ms per wall second
    aggregate = Link("agg", bandwidth=100 * MiB, clock=clock)
    started = clock.now()
    workers = [
        threading.Thread(target=lambda: [aggregate._book(1 * MiB) for _ in range(500)])
        for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert aggregate._booked_until - started >= 8 * 500 * 0.01 - 1e-6
