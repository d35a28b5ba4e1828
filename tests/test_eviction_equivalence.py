"""Eviction decisions equal the exact reference at every reservation.

``CacheBuffer`` keeps Algorithm 1's member costs memoised and pushed by the
events that change them; the scan reads them inline and sums p exactly.
These tests install a replay policy that runs the cache's own scan, then
recomputes every member's cost afresh (``make_cost_fn`` over
``instance_state_ts`` and ``queue.distance``) and asserts the brute-force
exact-sum pick (``math.fsum``) is the same window with the same scores.
The flush estimates here are deterministic, so fresh and memoised costs must
agree exactly.

The scripted life also pins the decision stream recorded before the memo
was pushed: its costs are multiples of 0.25, so every float sum was exact
and nothing may move.  Event timestamps are excluded: the virtual clock
tracks wall time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.config import ScaleModel
from repro.core.cache import CacheBuffer
from repro.core.catalog import CheckpointRecord
from repro.core.lifecycle import CkptState
from repro.core.predict import NEVER, instance_state_ts
from repro.core.restore_queue import RestoreQueue
from repro.core.scoring import BARRIER, ScorePolicy, exact, make_cost_fn
from repro.core.sync import Monitor
from repro.errors import HintError
from repro.predict.queue import SyntheticRestoreQueue
from repro.simgpu.memory import Arena
from repro.telemetry import Telemetry
from repro.tiers.base import TierLevel
from repro.util.units import KiB, MiB
from tests.scoring_oracle import brute_force

SCALE = ScaleModel(data_scale=64 * KiB, alignment=64 * KiB, time_scale=0.002)
SLOT = 1 * MiB


class Replay(ScorePolicy):
    """The cache's scan, checked at every call against the brute-force
    exact-sum pick over freshly computed costs."""

    def __init__(self, cache: CacheBuffer) -> None:
        self.cache = cache
        self.checked = 0

    def fresh_cost(self, allow_pinned: bool, no_hint: float):
        cache = self.cache
        return make_cost_fn(
            lambda frag: instance_state_ts(
                frag.record, cache.level, cache.flush_estimate, allow_pinned=allow_pinned
            ),
            lambda frag: cache.queue.distance(frag.record.ckpt_id),
            no_hint,
        )

    def select(self, fragments, size_new, costs, limit=None, min_offset=0, keep_nearer=0):
        window = super().select(fragments, size_new, costs, limit, min_offset, keep_nearer)
        fresh = self.fresh_cost(costs is self.cache.costs[True], costs.no_hint)
        expected = brute_force(fragments, size_new, fresh, limit, min_offset, keep_nearer)
        got = None if window is None else ((window.p_score, -window.s_score), window.start, window.end)
        assert got == expected
        self.checked += 1
        return window


def assert_memo_exact(cache: CacheBuffer) -> None:
    """Every memoised p is what a fresh pricing gives (estimates here are
    a function of size alone, so even frozen ones must match)."""
    for allow_pinned, costs in enumerate(cache.costs):
        for ckpt_id, p in costs.p.items():
            record = cache.table.lookup(ckpt_id).record
            ts = instance_state_ts(
                record, cache.level, cache.flush_estimate, allow_pinned=bool(allow_pinned)
            )
            assert p == (BARRIER if ts == NEVER else exact(ts)), (ckpt_id, allow_pinned)


def _make_cache(capacity_slots=6, queue=None, flush_estimate=None, usable_capacity=None):
    clock = VirtualClock(time_scale=0.002)
    telemetry = Telemetry(clock, enabled=True)
    cache = CacheBuffer(
        name="equiv",
        level=TierLevel.GPU,
        arena=Arena("equiv", capacity_slots * SLOT, SCALE),
        monitor=Monitor(clock),
        clock=clock,
        restore_queue=RestoreQueue() if queue is None else queue,
        # deterministic, size-varying
        flush_estimate=flush_estimate or (lambda n: 0.25 * n / MiB),
        usable_capacity=usable_capacity,
        telemetry=telemetry,
    )
    cache.policy = Replay(cache)
    return cache, telemetry


def _flush(record, level=TierLevel.GPU):
    inst = record.instance(level)
    if inst.state is CkptState.WRITE_IN_PROGRESS:
        inst.transition(CkptState.WRITE_COMPLETE)
    inst.transition(CkptState.FLUSHED)
    record.durable_level = TierLevel.SSD


def _run_scenario(split: bool = False):
    """One scripted cache life with plenty of decision-relevant variety:
    flushed / writing / pinned members, flush-pending flips, hints arriving
    mid-life, forced evictions, and multi-slot incoming checkpoints."""
    cache, telemetry = _make_cache()
    if split:
        cache.write_boundary = 3 * SLOT  # exercise limit/min_offset regions
    records = {}

    def rec(ckpt_id, slots=1):
        r = CheckpointRecord(ckpt_id, slots * SLOT, slots * SLOT, 0)
        records[ckpt_id] = r
        return r

    # Fill the cache with writes in assorted life-cycle positions.
    for i in range(6 if not split else 3):
        assert cache.reserve(rec(i), CkptState.WRITE_IN_PROGRESS, blocking=False) is not None
    _flush(records[0])
    _flush(records[1])
    records[1].instance(TierLevel.GPU).flush_pending = True
    _flush(records[2])
    if not split:
        _flush(records[3])
        inst4 = records[4].instance(TierLevel.GPU)
        inst4.transition(CkptState.WRITE_COMPLETE)
        inst4.transition(CkptState.READ_COMPLETE)  # crossover: pinned
        records[4].durable_level = TierLevel.SSD
        # id 5 stays WRITE_IN_PROGRESS (a barrier-ish, non-evictable member).

    # Hints arrive: some cached ids, some future ones.
    for hint in (3, 2, 9, 4, 0):
        cache.queue.enqueue(hint)
    cache.queue.start()

    # A two-slot write must find (or make) a contiguous two-slot window.
    cache.reserve(rec(6, slots=2), CkptState.WRITE_IN_PROGRESS, blocking=False)
    # Flush-pending flip changes the predicted state_ts of id 1.
    records[1].instance(TierLevel.GPU).flush_pending = False
    cache.reserve(rec(7), CkptState.WRITE_IN_PROGRESS, blocking=False)
    # Forced (demand) reservation may evict the pinned READ_COMPLETE extent.
    cache.reserve(rec(8), CkptState.READ_IN_PROGRESS, blocking=False, allow_pinned=True)
    # Consumption makes everything left evictable; one more multi-slot write.
    for r in records.values():
        inst = r.peek(TierLevel.GPU)
        if inst is not None:
            r.consumed = True
            if inst.state is CkptState.WRITE_COMPLETE:
                inst.try_transition(CkptState.READ_COMPLETE)
            inst.try_transition(CkptState.CONSUMED)
    cache.queue.consume(4)
    cache.reserve(rec(10, slots=2), CkptState.WRITE_IN_PROGRESS, blocking=False)

    decisions = [
        (
            ev.args["offset"] // SLOT,
            ev.args["bytes"] // SLOT,
            ev.args["forced"],
            ev.args["p_score"],
            ev.args["s_score"],
            [member["ckpt"] for member in ev.args["members"]],
        )
        for ev in telemetry.bus.snapshot()
        if ev.name == "evict-window"
    ]
    layout = [
        (frag.offset // SLOT, frag.size // SLOT, None if frag.is_gap else frag.record.ckpt_id)
        for frag in cache.table.fragments()
    ]
    cache.table.check_invariants()
    assert_memo_exact(cache)
    return decisions, layout, cache.policy.checked


def test_cost_cache_changes_no_eviction_decision():
    decisions, layout, checked = _run_scenario()
    assert checked >= len(decisions) > 0  # the scenario must actually exercise eviction
    # (slot offset, slots, forced, p_score, s_score, members)
    assert decisions == [
        (2, 2, False, 0.0, 1.0, [2, 3]),
        (1, 1, False, 0.0, 11.0, [1]),
        (0, 1, True, 0.0, 4.0, [0]),
    ]
    assert layout == [(0, 1, 8), (1, 1, 7), (2, 2, 6), (4, 1, 4), (5, 1, 5)]


def test_cost_cache_equivalence_with_split_regions():
    decisions, layout, checked = _run_scenario(split=True)
    assert checked >= len(decisions) > 0
    assert decisions == [(1, 1, False, 0.0, 10.0, [1])]
    assert layout == [(0, 1, 0), (1, 1, 7), (2, 1, 2), (3, 1, 8), (4, 2, None)]


# -- random lives ---------------------------------------------------------------

#: script events, weighted toward the ones that fill the cache and make
#: its members evictable, so most reservations must choose a window.
OPS = (
    ("write",) * 4 + ("read",) * 3 + ("advance",) * 5
    + ("flush_pending", "read_pinned", "speculative", "consume", "enqueue", "refresh")
    + ("ramp", "release")
)


def _odd_estimate(nbytes: int) -> float:
    """A flush estimate whose sums are inexact in binary floating point."""
    return 0.1 * nbytes / MiB + 0.0052153125


_NEXT_STATE = {
    CkptState.WRITE_IN_PROGRESS: (CkptState.WRITE_COMPLETE,),
    CkptState.WRITE_COMPLETE: (CkptState.FLUSHED, CkptState.READ_COMPLETE),
    CkptState.FLUSHED: (CkptState.READ_COMPLETE, CkptState.CONSUMED),
    CkptState.READ_IN_PROGRESS: (CkptState.READ_COMPLETE,),
    CkptState.READ_COMPLETE: (CkptState.CONSUMED,),
}


def _apply(cache, ramp, records, op, a, b):
    """One scripted event; an event that does not apply is skipped."""
    queue = cache.queue
    cached = [records[f.record.ckpt_id] for f in cache.table.fragments() if not f.is_gap]
    record = cached[a % len(cached)] if cached else None
    inst = record.peek(TierLevel.GPU) if record is not None else None
    if op in ("write", "read"):
        new = CheckpointRecord(len(records), (1 + b % 2) * SLOT, (1 + b % 2) * SLOT, 0)
        new.durable_level = TierLevel.SSD  # eviction never destroys a last copy here
        records[new.ckpt_id] = new
        if op == "write":
            cache.reserve(new, CkptState.WRITE_IN_PROGRESS, blocking=False)
        else:
            cache.reserve(
                new, CkptState.READ_IN_PROGRESS, blocking=False, allow_pinned=bool(b & 4),
                keep_nearer=bool(b & 8), speculative=bool(b & 16),
            )
    elif op == "advance" and inst is not None:
        for step in range(1 + b % 3):  # walk one to three edges of Figure 1
            choices = _NEXT_STATE.get(inst.state, ())
            if not choices:
                break
            new_state = choices[(b >> step) % len(choices)]
            record.consumed |= new_state is CkptState.CONSUMED
            inst.transition(new_state)
    elif op == "flush_pending" and inst is not None:
        inst.flush_pending = not inst.flush_pending
    elif op == "read_pinned" and inst is not None:
        inst.read_pinned = 0 if inst.read_pinned else 1
    elif op == "speculative" and inst is not None:
        inst.speculative = not inst.speculative
    elif op in ("consume", "enqueue"):
        try:  # HintError: consumed twice, or hinted twice / after consumption
            getattr(queue, op)((b * 7 + a) % (len(records) + 4))
        except HintError:
            pass
    elif op == "refresh":
        pool = len(records) + 4
        queue.refresh([((a + k * (b + 1)) % pool, 1.0 - k / 8) for k in range(b % 5)])
    elif op == "ramp":
        ramp[0] = min(cache.table.capacity, ramp[0] + SLOT)
    elif op == "release" and record is not None:
        cache.release(record)


@given(
    st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 31), st.integers(0, 31)),
        min_size=10,
        max_size=80,
    ),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_random_lives_match_the_exact_reference(script, split, ramping):
    """Flag flips, forced and keep-nearer claims, split regions, a ramping
    limit, and consume/enqueue/refresh on a synthetic queue: every scan
    picks the exact-sum reference's window, and the memo stays exact."""
    ramp = [3 * SLOT if ramping else 6 * SLOT]
    cache, _ = _make_cache(
        capacity_slots=6,
        queue=SyntheticRestoreQueue(),
        flush_estimate=_odd_estimate,
        usable_capacity=lambda: ramp[0],
    )
    if split:
        cache.write_boundary = 3 * SLOT
    records = {}
    for op, a, b in script:
        _apply(cache, ramp, records, op, a, b)
        assert_memo_exact(cache)
        cache.table.check_invariants()


def test_scheduled_link_estimates_match_fifo_link():
    """Eviction scoring reads ``Link.estimate``/``pending_bytes``; attaching a
    QoS scheduler must not change those figures for an identical transfer
    sequence, so scheduling cannot perturb eviction decisions."""
    from repro.config import SchedConfig
    from repro.sched import LinkScheduler, TransferClass, TransferRequest
    from repro.simgpu.bandwidth import Link

    def run(with_sched: bool):
        clock = VirtualClock(time_scale=0.002)
        link = Link("equiv", bandwidth=100 * MiB, clock=clock, latency=0.01)
        if with_sched:
            link.scheduler = LinkScheduler(link, SchedConfig(enabled=True), clock)
        observed = []
        for i, nbytes in enumerate((10 * MiB, 50 * MiB, 1 * MiB, 128 * MiB)):
            request = (
                TransferRequest(
                    TransferClass(i % len(TransferClass)), engine_id=i % 2
                )
                if with_sched
                else None
            )
            link.transfer(nbytes, request=request)
            observed.append(
                (
                    link.pending_bytes,
                    link.bytes_moved,
                    link.transfer_count,
                    round(link.estimate(64 * MiB), 9),
                    round(link.estimate(64 * MiB, include_pending=False), 9),
                )
            )
        return observed

    assert run(with_sched=True) == run(with_sched=False)
