"""CacheBuffer: reservation, eviction, payload I/O, safety invariants."""

import threading

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.config import ScaleModel
from repro.core.cache import CacheBuffer
from repro.core.catalog import CheckpointRecord
from repro.core.lifecycle import CkptState
from repro.core.restore_queue import RestoreQueue
from repro.core.sync import Monitor
from repro.errors import AllocationError, CapacityError
from repro.simgpu.memory import Arena, make_payload
from repro.tiers.base import TierLevel
from repro.util.rng import make_rng
from repro.util.units import KiB, MiB

SCALE = ScaleModel(data_scale=64 * KiB, alignment=64 * KiB, time_scale=0.002)
SLOT = 1 * MiB  # checkpoints are one "slot" = 1 MiB


def make_cache(capacity_slots=4, **kw):
    clock = VirtualClock(time_scale=0.002)
    monitor = Monitor(clock)
    arena = Arena("test", capacity_slots * SLOT, SCALE)
    queue = RestoreQueue()
    cache = CacheBuffer(
        name="test-gpu",
        level=TierLevel.GPU,
        arena=arena,
        monitor=monitor,
        clock=clock,
        restore_queue=queue,
        flush_estimate=lambda n: 0.1,
        **kw,
    )
    return cache


def make_record(ckpt_id, size=SLOT):
    return CheckpointRecord(ckpt_id, size, size, 0)


def fill_flushed(cache, n, start_id=0):
    """Insert n records and walk them to FLUSHED (evictable)."""
    records = []
    for i in range(start_id, start_id + n):
        r = make_record(i)
        assert cache.reserve(r, CkptState.WRITE_IN_PROGRESS) is not None
        inst = r.instance(cache.level)
        inst.transition(CkptState.WRITE_COMPLETE)
        inst.transition(CkptState.FLUSHED)
        r.durable_level = TierLevel.SSD  # copy exists below
        records.append(r)
    return records


class TestReserve:
    def test_reserve_creates_instance(self):
        cache = make_cache()
        r = make_record(1)
        waited = cache.reserve(r, CkptState.WRITE_IN_PROGRESS)
        assert waited == 0.0
        assert cache.contains(r)
        assert r.instance(TierLevel.GPU).state is CkptState.WRITE_IN_PROGRESS

    def test_double_reserve_rejected(self):
        cache = make_cache()
        r = make_record(1)
        cache.reserve(r, CkptState.WRITE_IN_PROGRESS)
        with pytest.raises(AllocationError):
            cache.reserve(r, CkptState.WRITE_IN_PROGRESS)

    def test_capacity_error_for_oversized(self):
        cache = make_cache(capacity_slots=2)
        with pytest.raises(CapacityError):
            cache.reserve(make_record(1, size=3 * SLOT), CkptState.WRITE_IN_PROGRESS)

    def test_eviction_of_flushed_makes_room(self):
        cache = make_cache(capacity_slots=2)
        fill_flushed(cache, 2)
        r = make_record(10)
        waited = cache.reserve(r, CkptState.WRITE_IN_PROGRESS)
        assert waited is not None
        assert cache.contains(r)
        assert cache.evictions >= 1

    def test_nonblocking_fails_when_unevictable(self):
        cache = make_cache(capacity_slots=1)
        r1 = make_record(1)
        cache.reserve(r1, CkptState.WRITE_IN_PROGRESS)  # not evictable
        assert cache.reserve(make_record(2), CkptState.READ_IN_PROGRESS, blocking=False) is None

    def test_blocking_reserve_waits_for_state_change(self):
        cache = make_cache(capacity_slots=1)
        r1 = make_record(1)
        cache.reserve(r1, CkptState.WRITE_IN_PROGRESS)
        r1.durable_level = TierLevel.SSD
        result = {}

        def unblock():
            cache.clock.sleep(2.0)
            with cache.monitor:
                inst = r1.instance(TierLevel.GPU)
                inst.transition(CkptState.WRITE_COMPLETE)
                inst.transition(CkptState.FLUSHED)
                cache.monitor.notify_all()

        t = threading.Thread(target=unblock, daemon=True)
        t.start()
        waited = cache.reserve(make_record(2), CkptState.WRITE_IN_PROGRESS, blocking=True)
        t.join()
        assert waited is not None and waited > 0.0

    def test_pinned_not_evicted_without_force(self):
        cache = make_cache(capacity_slots=1)
        r1 = make_record(1)
        cache.reserve(r1, CkptState.READ_IN_PROGRESS)
        r1.instance(TierLevel.GPU).transition(CkptState.READ_COMPLETE)
        r1.durable_level = TierLevel.SSD
        assert cache.reserve(make_record(2), CkptState.WRITE_IN_PROGRESS, blocking=False) is None

    def test_forced_eviction_of_pinned(self):
        cache = make_cache(capacity_slots=1)
        r1 = make_record(1)
        cache.reserve(r1, CkptState.READ_IN_PROGRESS)
        r1.instance(TierLevel.GPU).transition(CkptState.READ_COMPLETE)
        r1.durable_level = TierLevel.SSD
        waited = cache.reserve(
            make_record(2), CkptState.READ_IN_PROGRESS, blocking=False, allow_pinned=True
        )
        assert waited is not None
        assert cache.forced_evictions == 1
        assert r1.peek(TierLevel.GPU) is None

    def test_only_copy_protected(self):
        """Eviction must never destroy the only copy of unconsumed data."""
        cache = make_cache(capacity_slots=1)
        r1 = make_record(1)
        cache.reserve(r1, CkptState.READ_IN_PROGRESS)
        r1.instance(TierLevel.GPU).transition(CkptState.READ_COMPLETE)
        # no durable level, no other cached copy → forced eviction must fail
        with pytest.raises(AllocationError):
            cache.reserve(
                make_record(2), CkptState.WRITE_IN_PROGRESS, blocking=False, allow_pinned=True
            )

    def test_consumed_evictable_without_other_copy(self):
        cache = make_cache(capacity_slots=1)
        r1 = make_record(1)
        cache.reserve(r1, CkptState.READ_IN_PROGRESS)
        inst = r1.instance(TierLevel.GPU)
        inst.transition(CkptState.READ_COMPLETE)
        inst.transition(CkptState.CONSUMED)
        r1.consumed = True
        waited = cache.reserve(make_record(2), CkptState.WRITE_IN_PROGRESS, blocking=False)
        assert waited is not None

    def test_flush_pending_blocks_eviction(self):
        cache = make_cache(capacity_slots=1)
        (r1,) = fill_flushed(cache, 1)
        r1.instance(TierLevel.GPU).flush_pending = True
        assert cache.reserve(make_record(2), CkptState.WRITE_IN_PROGRESS, blocking=False) is None
        r1.instance(TierLevel.GPU).flush_pending = False
        assert cache.reserve(make_record(2), CkptState.WRITE_IN_PROGRESS, blocking=False) is not None

    def test_read_pinned_blocks_eviction(self):
        cache = make_cache(capacity_slots=1)
        (r1,) = fill_flushed(cache, 1)
        r1.instance(TierLevel.GPU).read_pinned = 1
        assert cache.reserve(make_record(2), CkptState.WRITE_IN_PROGRESS, blocking=False) is None


class TestPrefetchClaims:
    """The prefetch workers' reservation terms: ``keep_nearer`` (staging
    claims) and ``budget_fraction`` (every prefetch claim)."""

    def _full(self, hinted):
        """A 4-slot cache of FLUSHED checkpoints 0..3, hints in the order given."""
        cache = make_cache()
        fill_flushed(cache, 4)
        for ckpt_id in hinted:
            cache.queue.enqueue(ckpt_id)
        return cache

    def _claim(self, cache, ckpt_id, **terms):
        record = make_record(ckpt_id)
        record.durable_level = TierLevel.SSD
        return cache.reserve(record, CkptState.READ_IN_PROGRESS, blocking=False, **terms)

    def _cached(self, cache):
        return sorted(f.record.ckpt_id for f in cache.table.fragments() if not f.is_gap)

    def test_algorithm_1_alone_evicts_a_nearer_hint(self):
        """Why the barrier exists: every member is evictable at no cost, so
        the s-score decides and the claim takes the farthest cached hint —
        which the incoming checkpoint is hinted *behind*."""
        cache = self._full(hinted=[0, 1, 2, 3, 9])
        assert self._claim(cache, 9) == 0.0
        assert self._cached(cache) == [0, 1, 2, 9] and cache.evictions == 1

    def test_staging_claim_keeps_every_nearer_hint(self):
        cache = self._full(hinted=[0, 1, 2, 3, 9])
        assert self._claim(cache, 9, keep_nearer=True) is None
        # An incoming checkpoint with no hint of its own keeps everything.
        assert self._claim(cache, 7, keep_nearer=True) is None
        assert self._cached(cache) == [0, 1, 2, 3] and cache.evictions == 0

    def test_staging_claim_may_evict_farther_unhinted_and_consumed(self):
        cache = self._full(hinted=[0, 1, 9, 2])  # 3 is unhinted
        assert self._claim(cache, 9, keep_nearer=True) == 0.0
        assert self._cached(cache) == [0, 1, 2, 9]  # unhinted goes first
        assert self._claim(cache, 3, keep_nearer=True) is None  # 3 has no hint
        cache.queue.enqueue(8)
        assert self._claim(cache, 8, keep_nearer=True) is None  # 0, 1, 2 nearer; 9 in flight
        cache.queue.consume(0)  # a consumed checkpoint is nobody's nearer hint
        assert self._claim(cache, 8, keep_nearer=True) == 0.0
        assert self._cached(cache) == [1, 2, 8, 9]

    def test_budget_is_enforced_inside_the_claim(self):
        cache = self._full(hinted=[9, 8, 0, 1, 2, 3])
        assert cache.within_budget(SLOT, 0.25) and not cache.within_budget(2 * SLOT, 0.25)
        assert self._claim(cache, 9, budget_fraction=0.25) == 0.0  # one slot pinned
        assert self._claim(cache, 8, budget_fraction=0.25) is None
        assert self._claim(cache, 8, budget_fraction=0.5) == 0.0
        assert cache.evictions == 2 and cache.pinned_bytes() == 2 * SLOT


class TestSplitRegions:
    def test_write_and_prefetch_partitions(self):
        cache = make_cache(capacity_slots=4)
        cache.write_boundary = 2 * SLOT
        w = make_record(1)
        cache.reserve(w, CkptState.WRITE_IN_PROGRESS)
        p = make_record(2)
        cache.reserve(p, CkptState.READ_IN_PROGRESS)
        assert cache.offset_of(w) < 2 * SLOT
        assert cache.offset_of(p) >= 2 * SLOT

    def test_partition_capacity_errors(self):
        cache = make_cache(capacity_slots=4)
        cache.write_boundary = 2 * SLOT
        with pytest.raises(CapacityError):
            cache.reserve(make_record(1, size=3 * SLOT), CkptState.WRITE_IN_PROGRESS)

    def test_write_partition_fills_independently(self):
        cache = make_cache(capacity_slots=4)
        cache.write_boundary = 2 * SLOT
        cache.reserve(make_record(1), CkptState.WRITE_IN_PROGRESS)
        cache.reserve(make_record(2), CkptState.WRITE_IN_PROGRESS)
        # write half full and unevictable; prefetch half still available
        assert cache.reserve(make_record(3), CkptState.WRITE_IN_PROGRESS, blocking=False) is None
        assert cache.reserve(make_record(4), CkptState.READ_IN_PROGRESS, blocking=False) is not None


class TestPayloadIO:
    def test_roundtrip(self):
        cache = make_cache()
        r = make_record(1)
        cache.reserve(r, CkptState.WRITE_IN_PROGRESS)
        data = make_payload(SLOT, SCALE, make_rng(1, "pay"))
        cache.write_payload(r, data)
        out = cache.read_payload(r)
        assert np.array_equal(out[: data.size], data)

    def test_distinct_records_isolated(self):
        cache = make_cache()
        r1, r2 = make_record(1), make_record(2)
        cache.reserve(r1, CkptState.WRITE_IN_PROGRESS)
        cache.reserve(r2, CkptState.WRITE_IN_PROGRESS)
        d1 = make_payload(SLOT, SCALE, make_rng(1, "a"))
        d2 = make_payload(SLOT, SCALE, make_rng(1, "b"))
        cache.write_payload(r1, d1)
        cache.write_payload(r2, d2)
        assert np.array_equal(cache.read_payload(r1)[: d1.size], d1)
        assert np.array_equal(cache.read_payload(r2)[: d2.size], d2)

    def test_read_after_evict_raises(self):
        cache = make_cache()
        (r1,) = fill_flushed(cache, 1)
        cache.evict(r1)
        with pytest.raises(AllocationError):
            cache.read_payload(r1)


class TestStatsAndHelpers:
    def test_pinned_bytes(self):
        cache = make_cache()
        r = make_record(1)
        cache.reserve(r, CkptState.READ_IN_PROGRESS)
        assert cache.pinned_bytes() == SLOT
        r.instance(TierLevel.GPU).transition(CkptState.READ_COMPLETE)
        assert cache.pinned_bytes() == SLOT
        r.instance(TierLevel.GPU).transition(CkptState.CONSUMED)
        assert cache.pinned_bytes() == 0

    def test_occupancy(self):
        cache = make_cache(capacity_slots=4)
        assert cache.occupancy() == 0.0
        cache.reserve(make_record(1), CkptState.WRITE_IN_PROGRESS)
        assert cache.occupancy() == pytest.approx(0.25)

    def test_explicit_evict_noop_when_absent(self):
        cache = make_cache()
        cache.evict(make_record(1))  # not cached: no error

    def test_usable_capacity_limits_placement(self):
        cache = make_cache(capacity_slots=4, usable_capacity=lambda: 1 * SLOT)
        assert cache.reserve(make_record(1), CkptState.WRITE_IN_PROGRESS, blocking=False) is not None
        assert cache.reserve(make_record(2), CkptState.WRITE_IN_PROGRESS, blocking=False) is None
