"""QoS link scheduler: priority, fair queuing, EDF, preemption."""

import pytest

from repro.clock import VirtualClock
from repro.config import SchedConfig
from repro.errors import ConfigError, TransferError
from repro.sched import (
    PREEMPTIBLE_CLASSES,
    LinkScheduler,
    SchedContext,
    TransferClass,
    TransferRequest,
)
from repro.simgpu.bandwidth import Link
from repro.util.units import MiB
from tests.conftest import start_runners


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
        TransferClass.HINTED_PREFETCH,
        TransferClass.CASCADE_FLUSH,
        TransferClass.SPECULATIVE_PREFETCH,
    ]
    assert sorted(order) == order  # lower value = higher priority
    assert PREEMPTIBLE_CLASSES == {TransferClass.SPECULATIVE_PREFETCH}


def test_strict_priority_across_classes():
    # The demand read arrives first, so it preempts nothing: the
    # speculative entry survives to be chosen last.
    _, _, sched = make_sched()
    demand = open_waiting(sched, TransferClass.DEMAND_READ)
    flush = open_waiting(sched, TransferClass.CASCADE_FLUSH)
    spec = open_waiting(sched, TransferClass.SPECULATIVE_PREFETCH)
    hinted = open_waiting(sched, TransferClass.HINTED_PREFETCH)
    assert not spec.request.cancel_event.is_set()
    # Demand first, then hinted prefetch, then cascade flush, speculation last.
    for expected in (demand, hinted, flush, spec):
        assert sched._choose() is expected
        sched.finish(expected)


def test_fair_queuing_splits_a_link_equally():
    """Two engines' flows in one class take turns: bytes are charged
    unweighted, so equal quanta alternate exactly."""
    _, _, sched = make_sched()
    open_waiting(sched, TransferClass.CASCADE_FLUSH, engine_id=0)
    open_waiting(sched, TransferClass.CASCADE_FLUSH, engine_id=1)
    order = []
    for _ in range(40):
        winner = sched._choose()
        order.append(winner.request.engine_id)
        sched._charge(winner, 1 * MiB)
    assert order == [0, 1] * 20


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


def test_open_admits_every_transfer():
    """No class has a queue bound: backpressure comes from the caches, so
    a deep backlog of any class is seated, never shed or held at open."""
    _, _, sched = make_sched()
    for tclass in TransferClass:
        if tclass is not TransferClass.DEMAND_READ:  # it would preempt
            for _ in range(40):
                sched.open(TransferRequest(tclass), 1 * MiB)
    assert sched.depth() == 40 * (len(TransferClass) - 1)
    assert sched.preemptions == 0


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


def test_acquire_raises_when_cancelled_while_queued():
    _, _, sched = make_sched()
    request = TransferRequest(TransferClass.SPECULATIVE_PREFETCH)
    entry = sched.open(request, 1 * MiB)
    request.cancel_event.set()
    with pytest.raises(TransferError):
        sched.acquire(entry)
    sched.finish(entry)


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
    started = clock.event()

    def speculative():
        started.set()
        try:
            # 1000 MiB at 100 MiB/s = 10 nominal seconds (100 ms wall) of
            # quanta — plenty of runway for the demand read to arrive.
            link.transfer(1000 * MiB, request=spec_request)
            results["spec"] = "completed"
        except TransferError:
            results["spec"] = "preempted"

    (t,) = start_runners(clock, (speculative,))
    started.wait(timeout=5)
    clock.sleep(0.5)  # let a few speculative quanta through
    demand_seconds = link.transfer(
        10 * MiB, request=TransferRequest(TransferClass.DEMAND_READ)
    )
    clock.join(t)
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
