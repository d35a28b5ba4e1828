"""QoS link scheduler: priority, WFQ, EDF, admission, preemption."""

import threading

import pytest

from repro.clock import VirtualClock
from repro.config import SchedConfig
from repro.errors import AdmissionError, ConfigError, TransferError
from repro.sched import (
    PREEMPTIBLE_CLASSES,
    LinkScheduler,
    SchedContext,
    THROTTLED_CLASSES,
    TransferClass,
    TransferRequest,
)
from repro.simgpu.bandwidth import Link
from repro.util.units import MiB


def make_sched(config=None, bandwidth=100 * MiB):
    clock = VirtualClock(time_scale=0.001)
    link = Link("test", bandwidth=bandwidth, clock=clock)
    sched = LinkScheduler(link, config or SchedConfig(enabled=True), clock)
    link.scheduler = sched
    return clock, link, sched


def open_waiting(sched, tclass, engine_id=0, nbytes=1 * MiB, deadline=None):
    """Admit an entry and mark it parked in acquire() (white-box)."""
    entry = sched.open(
        TransferRequest(tclass, engine_id=engine_id, deadline=deadline), nbytes
    )
    entry.waiting = True
    return entry


# -- the lattice ------------------------------------------------------------
def test_transfer_class_lattice():
    order = [
        TransferClass.DEMAND_READ,
        TransferClass.FOREGROUND_WRITE,
        TransferClass.HINTED_PREFETCH,
        TransferClass.CASCADE_FLUSH,
        TransferClass.SPECULATIVE_PREFETCH,
    ]
    assert sorted(order) == order  # lower value = higher priority
    assert PREEMPTIBLE_CLASSES == {TransferClass.SPECULATIVE_PREFETCH}
    assert TransferClass.DEMAND_READ not in THROTTLED_CLASSES
    assert TransferClass.FOREGROUND_WRITE not in THROTTLED_CLASSES
    assert TransferClass.CASCADE_FLUSH in THROTTLED_CLASSES


def test_strict_priority_across_classes():
    # preemption off so the speculative entry survives to be chosen last
    _, _, sched = make_sched(SchedConfig(enabled=True, preempt_speculative=False))
    flush = open_waiting(sched, TransferClass.CASCADE_FLUSH)
    spec = open_waiting(sched, TransferClass.SPECULATIVE_PREFETCH)
    hinted = open_waiting(sched, TransferClass.HINTED_PREFETCH)
    demand = open_waiting(sched, TransferClass.DEMAND_READ)
    # Demand first, then hinted prefetch, then cascade flush, speculation last.
    for expected in (demand, hinted, flush, spec):
        assert sched._choose() is expected
        sched.finish(expected)


def test_wfq_shares_proportional_to_weight():
    config = SchedConfig(
        enabled=True, engine_weights=((0, 3.0), (1, 1.0)), preempt_speculative=False
    )
    _, _, sched = make_sched(config)
    a = open_waiting(sched, TransferClass.CASCADE_FLUSH, engine_id=0)
    b = open_waiting(sched, TransferClass.CASCADE_FLUSH, engine_id=1)
    grants = {0: 0, 1: 0}
    for _ in range(40):
        winner = sched._choose()
        grants[winner.request.engine_id] += 1
        sched._charge(winner, 1 * MiB)
    assert grants[0] == 30  # 3:1 split, exactly, for equal-size quanta
    assert grants[1] == 10


def test_idle_flow_earns_no_credit():
    """A flow that idles must re-enter at the live virtual time, not with
    banked credit that would starve the active flows."""
    _, _, sched = make_sched(SchedConfig(enabled=True))
    a = open_waiting(sched, TransferClass.CASCADE_FLUSH, engine_id=0)
    for _ in range(16):
        sched._charge(a, 1 * MiB)  # flow 0 runs alone for a while
    b = open_waiting(sched, TransferClass.CASCADE_FLUSH, engine_id=1)
    # Flow 1 enters at flow 0's virtual time: service alternates from here
    # instead of flow 1 monopolizing the link for 16 quanta.
    grants = {0: 0, 1: 0}
    for _ in range(8):
        winner = sched._choose()
        grants[winner.request.engine_id] += 1
        sched._charge(winner, 1 * MiB)
    assert grants[0] >= 3
    assert grants[1] >= 3


def test_edf_orders_equal_vtime_prefetches():
    _, _, sched = make_sched()
    far = open_waiting(
        sched, TransferClass.HINTED_PREFETCH, engine_id=0, deadline=5.0
    )
    near = open_waiting(
        sched, TransferClass.HINTED_PREFETCH, engine_id=1, deadline=1.0
    )
    assert sched._choose() is near
    sched.finish(near)
    assert sched._choose() is far


def test_speculative_queue_bound_sheds():
    config = SchedConfig(enabled=True, max_speculative_queue=2)
    _, _, sched = make_sched(config)
    open_waiting(sched, TransferClass.SPECULATIVE_PREFETCH)
    open_waiting(sched, TransferClass.SPECULATIVE_PREFETCH)
    with pytest.raises(AdmissionError):
        sched.open(TransferRequest(TransferClass.SPECULATIVE_PREFETCH), 1 * MiB)
    assert sched.sheds == 1
    # Other classes are not subject to the speculative bound.
    sched.open(TransferRequest(TransferClass.CASCADE_FLUSH), 1 * MiB)


def test_flush_admission_blocks_until_drain():
    config = SchedConfig(enabled=True, max_flush_queue=1)
    _, _, sched = make_sched(config)
    first = sched.open(TransferRequest(TransferClass.CASCADE_FLUSH), 1 * MiB)
    admitted = threading.Event()

    def second():
        entry = sched.open(TransferRequest(TransferClass.CASCADE_FLUSH), 1 * MiB)
        admitted.set()
        sched.finish(entry)

    t = threading.Thread(target=second)
    t.start()
    assert not admitted.wait(0.2)  # backpressured while the queue is full
    sched.finish(first)
    assert admitted.wait(5)
    t.join(timeout=5)
    assert sched.admission_blocks == 1


def test_flush_admission_block_aborts_on_cancellation():
    config = SchedConfig(enabled=True, max_flush_queue=1)
    _, _, sched = make_sched(config)
    sched.open(TransferRequest(TransferClass.CASCADE_FLUSH), 1 * MiB)
    blocked_request = TransferRequest(TransferClass.CASCADE_FLUSH)
    errors = []

    def second():
        try:
            sched.open(blocked_request, 1 * MiB)
        except TransferError as exc:
            errors.append(exc)

    t = threading.Thread(target=second)
    t.start()
    blocked_request.cancel_event.set()  # flush abandoned while backpressured
    t.join(timeout=5)
    assert errors, "cancelled admission wait should raise"


def test_demand_read_preempts_speculative_only():
    _, _, sched = make_sched()
    spec = open_waiting(sched, TransferClass.SPECULATIVE_PREFETCH)
    hinted = open_waiting(sched, TransferClass.HINTED_PREFETCH)
    flush = open_waiting(sched, TransferClass.CASCADE_FLUSH)
    demand = open_waiting(sched, TransferClass.DEMAND_READ)
    assert spec.request.cancel_event.is_set()
    assert not hinted.request.cancel_event.is_set()
    assert not flush.request.cancel_event.is_set()
    assert not demand.request.cancel_event.is_set()
    assert sched.preemptions == 1


def test_preemption_disabled_by_config():
    _, _, sched = make_sched(SchedConfig(enabled=True, preempt_speculative=False))
    spec = open_waiting(sched, TransferClass.SPECULATIVE_PREFETCH)
    open_waiting(sched, TransferClass.DEMAND_READ)
    assert not spec.request.cancel_event.is_set()
    assert sched.preemptions == 0


def test_acquire_raises_when_cancelled_while_queued():
    _, _, sched = make_sched()
    request = TransferRequest(TransferClass.SPECULATIVE_PREFETCH)
    entry = sched.open(request, 1 * MiB)
    request.cancel_event.set()
    with pytest.raises(TransferError):
        sched.acquire(entry)
    sched.finish(entry)


def test_token_bucket_throttles_background_classes():
    config = SchedConfig(
        enabled=True,
        engine_rate_limit=float(1 * MiB),  # 1 MiB per nominal second
        burst_bytes=1 * MiB,
        quantum_bytes=1 * MiB,
    )
    clock, _, sched = make_sched(config)
    flush = open_waiting(sched, TransferClass.CASCADE_FLUSH, nbytes=4 * MiB)
    now = clock.now()
    assert sched._eligible(flush, now)  # full burst available
    sched.release(flush, 1 * MiB)  # spend the burst
    flush.waiting = True
    assert not sched._eligible(flush, clock.now())  # throttled until refill
    # Demand reads are never throttled.
    demand = open_waiting(sched, TransferClass.DEMAND_READ, nbytes=4 * MiB)
    assert sched._eligible(demand, clock.now())
    # The refill ETA is what the arbiter sleeps toward.
    bucket = sched._bucket(0, clock.now())
    assert bucket.eta(1 * MiB, clock.now()) > 0


def test_scheduled_transfer_end_to_end_priority():
    """Through Link.transfer: a demand read overtakes a queued flush and an
    in-flight speculative prefetch is preempted to zero further progress."""
    clock = VirtualClock(time_scale=0.01)
    link = Link("e2e", bandwidth=100 * MiB, clock=clock)
    config = SchedConfig(enabled=True, quantum_bytes=1 * MiB)
    sched = LinkScheduler(link, config, clock)
    link.scheduler = sched

    spec_request = TransferRequest(TransferClass.SPECULATIVE_PREFETCH)
    results = {}
    started = threading.Event()

    def speculative():
        started.set()
        try:
            # 1000 MiB at 100 MiB/s = 10 nominal seconds (100 ms wall) of
            # quanta — plenty of runway for the demand read to arrive.
            link.transfer(1000 * MiB, request=spec_request)
            results["spec"] = "completed"
        except TransferError:
            results["spec"] = "preempted"

    t = threading.Thread(target=speculative)
    t.start()
    started.wait(timeout=5)
    clock.sleep(0.5)  # let a few speculative quanta through
    demand_seconds = link.transfer(
        10 * MiB, request=TransferRequest(TransferClass.DEMAND_READ)
    )
    t.join(timeout=10)
    assert results["spec"] == "preempted"
    assert sched.preemptions == 1
    # The demand read never waited behind the (cancelled) 10 s speculation.
    assert demand_seconds < 5.0


def test_sched_context_attach_respects_enabled_flag():
    clock = VirtualClock(time_scale=0.001)
    off = SchedContext(SchedConfig(enabled=False), clock)
    link = Link("ctx", bandwidth=1 * MiB, clock=clock)
    off.attach(link)
    assert link.scheduler is None
    assert off.snapshot() == []

    on = SchedContext(SchedConfig(enabled=True), clock)
    on.attach(link)
    assert link.scheduler is not None
    first = link.scheduler
    on.attach(link)  # idempotent
    assert link.scheduler is first
    assert len(on.schedulers()) == 1
    snap = on.snapshot()
    assert snap[0]["link"] == "ctx"
    assert snap[0]["depth"] == 0


def test_untagged_transfers_bypass_the_scheduler():
    clock, link, sched = make_sched()
    seconds = link.transfer(10 * MiB)  # no request: the link's FIFO arbiter
    assert seconds == 0.1  # exact: an uncontended acquire accounts no wait
    assert sched.grants == 0


def test_sched_config_validation():
    with pytest.raises(ConfigError):
        SchedConfig(quantum_bytes=0)
    with pytest.raises(ConfigError):
        SchedConfig(default_weight=0)
    with pytest.raises(ConfigError):
        SchedConfig(engine_weights=((0, -1.0),))
    with pytest.raises(ConfigError):
        SchedConfig(admission="drop-everything")
    with pytest.raises(ConfigError):
        SchedConfig(engine_rate_limit=0.0)
    cfg = SchedConfig(engine_weights=((3, 2.5),))
    assert cfg.weight_of(3) == 2.5
    assert cfg.weight_of(7) == cfg.default_weight
