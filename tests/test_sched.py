"""QoS link scheduler: priority, demand arrival order, fair queuing, EDF,
preemption."""

from types import SimpleNamespace

import pytest

import repro.clock
from repro.clock import VirtualClock
from repro.config import SchedConfig
from repro.core.engine import ScoreEngine
from repro.errors import ConfigError, TransferError
from repro.sched import (
    PREEMPTIBLE_CLASSES,
    LinkScheduler,
    SchedContext,
    TransferClass,
    TransferRequest,
)
from repro.simgpu.bandwidth import Link
from repro.telemetry import Telemetry
from repro.tiers.base import TierLevel
from repro.tiers.topology import Cluster
from repro.util.units import MiB
from tests.conftest import make_buffer, start_runners, tiny_config


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


def test_a_grant_waits_only_behind_the_holder_not_its_own_latency():
    """A transfer's queue wait (``first_grant_wait_s`` and its ``sched-wait``
    span) starts where its charged latency ended: on an idle link the grant
    records 0.0 and no span; behind a holder, exactly the seconds it
    accounted beyond its latency and its bytes."""
    clock = VirtualClock(time_scale=0.01)
    telemetry = Telemetry(clock=clock, enabled=True)
    link = Link("wait", bandwidth=100 * MiB, clock=clock, latency=0.25)
    link.scheduler = LinkScheduler(
        link, SchedConfig(enabled=True, quantum_bytes=1 << 40), clock, telemetry
    )

    def flush(nbytes):
        request = TransferRequest(TransferClass.CASCADE_FLUSH, op_id="c0:1")
        return link.transfer(nbytes, request=request)

    def waits():
        return telemetry.registry.snapshot()["sched.wait.first_grant_wait_s"]

    def spans():
        return [ev for ev in telemetry.bus.snapshot() if ev.name == "sched-wait"]

    assert flush(10 * MiB) == 0.25 + 0.1
    assert waits()["count"] == 1 and waits()["max"] == 0.0
    assert spans() == []

    stamps = {}

    def hold():  # holds the link 1 s past its latency
        stamps["start"] = clock.now()
        flush(100 * MiB)
        stamps["end"] = clock.now()

    (holder,) = start_runners(clock, (hold,))
    clock.sleep(0.5)  # into the holder's span: ours ends its latency inside it
    ours = clock.now()
    seconds = flush(10 * MiB)
    clock.join(holder)
    behind = seconds - 0.25 - 0.1
    # The rest of the holder's span, from where our latency ended: read off
    # the holder's own stamps, wherever the host's pace put its start.
    assert stamps["start"] < ours < stamps["start"] + 0.25 + 1.0
    assert behind == pytest.approx(stamps["end"] - (ours + 0.25), abs=0.05)
    assert waits()["count"] == 3 and waits()["max"] == pytest.approx(behind, rel=1e-12)
    (span,) = spans()
    assert span.dur == pytest.approx(behind, rel=1e-12) and span.op_id == "c0:1"


# -- demand reads: first come, first served per operation --------------------
@pytest.fixture
def still_clock(monkeypatch):
    """A clock that only skips move: the wall time it paces by stands still,
    so a queue wait read off it is the nominal closed form under any host
    load.  Every thread of these tests is registered, so each wait ends in
    a skip."""
    monkeypatch.setattr(repro.clock, "time", SimpleNamespace(monotonic=lambda: 0.0))
    return VirtualClock(time_scale=0.01)


def demand_link(clock, quantum=16 * MiB):
    """A scheduled 100 MiB/s link with a 0.25 s latency, and the fleet
    whose ``request`` stamps each demand read's arrival."""
    config = SchedConfig(enabled=True, quantum_bytes=quantum)
    fleet = SchedContext(config, clock)
    link = Link("demand", bandwidth=100 * MiB, clock=clock, latency=0.25)
    fleet.attach(link)
    return fleet, link


def test_a_second_demand_read_waits_for_the_first_instead_of_sharing_the_link(still_clock):
    """Two equal demand reads from two engines, the second opened while the
    first is mid-transfer: the first accounts exactly its lone time, the
    second its lone time plus the first's remainder from where its own
    latency ended — not both near the time the two take together."""
    clock = still_clock
    fleet, link = demand_link(clock)
    nbytes = 100 * MiB
    lone = link.latency + nbytes / link.bandwidth
    first = {}

    def read():
        first["start"] = clock.now()
        request = fleet.request(TransferClass.DEMAND_READ, 0)
        first["seconds"] = link.transfer(nbytes, request=request)

    (reader,) = start_runners(clock, (read,))
    clock.sleep(0.5)  # the first is 0.25 s into its bytes
    opened = clock.now()
    seconds = link.transfer(nbytes, request=fleet.request(TransferClass.DEMAND_READ, 1))
    clock.join(reader)
    assert opened - first["start"] == pytest.approx(0.5, rel=1e-9)
    assert first["seconds"] == pytest.approx(lone, rel=1e-9)
    remainder = first["start"] + lone - (opened + link.latency)
    assert seconds == pytest.approx(lone + remainder, rel=1e-9)


def test_a_streamed_demand_read_keeps_the_link_until_its_last_chunk(still_clock):
    """Two 8-chunk streamed reads, one request each (as one restore carries
    one), the second opened mid-way through the first: no chunk of the
    second is granted before the first's last, and the closed forms hold —
    the first alone, the second its lone time plus the first's remainder.
    Chunks after the first hide their latency behind the chunk ahead."""
    clock = still_clock
    chunk, chunks = 16 * MiB, 8
    fleet, link = demand_link(clock, quantum=chunk)
    sched = link.scheduler
    granted = []
    acquire = sched.acquire

    def logged(entry):
        waited = acquire(entry)
        granted.append(entry.request.engine_id)  # the slot is held here
        return waited

    sched.acquire = logged
    lone = link.latency + chunks * chunk / link.bandwidth
    first = {}

    def stream(engine_id):
        request = fleet.request(TransferClass.DEMAND_READ, engine_id)
        return sum(
            link.transfer(chunk, request=request, queued=link.latency if i else 0.0)
            for i in range(chunks)
        )

    def read():
        first["start"] = clock.now()
        first["seconds"] = stream(0)

    (reader,) = start_runners(clock, (read,))
    clock.sleep(0.5)  # the first is on its chunk 1
    opened = clock.now()
    seconds = stream(1)
    clock.join(reader)
    assert granted == [0] * chunks + [1] * chunks
    assert first["seconds"] == pytest.approx(lone, rel=1e-9)
    remainder = first["start"] + lone - (opened + link.latency)
    assert seconds == pytest.approx(lone + remainder, rel=1e-9)


def test_queued_demand_reads_are_chosen_in_arrival_order_not_round_robin():
    """Engine 0's two reads arrived before engine 1's: both are served
    first, although fair queuing would have handed engine 1 the second
    grant.  Demand grants charge no virtual time."""
    clock, _, sched = make_sched()
    fleet = SchedContext(SchedConfig(enabled=True), clock)
    entries = []
    for engine_id in (0, 0, 1):
        entry = sched.open(fleet.request(TransferClass.DEMAND_READ, engine_id), 1 * MiB)
        entry.waiting = True
        entries.append(entry)
    chosen = []
    while sched.depth():
        winner = sched._choose()
        chosen.append(winner)
        sched.release(winner, 1 * MiB)
        sched.finish(winner)
    assert chosen == entries
    assert sched._vft == {} and sched._class_vtime == {}


def test_one_restore_keeps_one_arrival_across_its_promotion_steps(monkeypatch):
    """A restore served off the SSD in one chunk promotes twice (SSD to
    host, host to GPU); both steps carry the one request it built, so the
    second step keeps the place in line the first had."""
    config = tiny_config(sched=SchedConfig(enabled=True))
    with Cluster(config) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx) as engine:
            engine.checkpoint(0, make_buffer(ctx, seed=0))
            engine.wait_for_flushes(timeout=600.0)
            record = engine.catalog.get(0)
            engine.gpu_cache.release(record)
            engine.host_cache.release(record)
            steps = []
            step = engine.prefetcher.step

            def spy(rec, where, op, request, *args, **kwargs):
                steps.append((where[0], where[1], request))
                return step(rec, where, op, request, *args, **kwargs)

            monkeypatch.setattr(engine.prefetcher, "step", spy)
            engine.restore(0, make_buffer(ctx, seed=1))
    assert [(src, dst) for src, dst, _ in steps] == [
        (TierLevel.SSD, TierLevel.HOST), (TierLevel.HOST, TierLevel.GPU)
    ]
    (_, _, request), (_, _, again) = steps
    assert again is request and request.tclass is TransferClass.DEMAND_READ


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
