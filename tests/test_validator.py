"""Engine invariant validator."""

import pytest

from repro.core.validator import InvariantViolation, validate_engine
from repro.util.units import MiB
from tests.conftest import make_buffer

CKPT = 128 * MiB


def test_fresh_engine_valid(engine):
    validate_engine(engine)


def test_valid_after_workload(engine, context):
    for v in range(20):
        engine.checkpoint(v, make_buffer(context, CKPT, seed=v))
    engine.wait_for_flushes()
    validate_engine(engine)
    out = context.device.alloc_buffer(CKPT)
    for v in reversed(range(20)):
        engine.restore(v, out)
    validate_engine(engine)


def test_valid_with_hints_and_prefetch(engine, context):
    for v in range(12):
        engine.checkpoint(v, make_buffer(context, CKPT, seed=v))
    engine.wait_for_flushes()
    for v in range(12):
        engine.prefetch_enqueue(v)
    engine.prefetch_start()
    engine.clock.sleep(1.0)
    validate_engine(engine)


def test_detects_orphan_fragment(engine, context):
    from repro.tiers.base import TierLevel

    engine.checkpoint(0, make_buffer(context, CKPT))
    engine.wait_for_flushes()
    record = engine.catalog.get(0)
    with engine.monitor:
        # Corrupt: drop the instance but leave the table fragment behind.
        record.drop_instance(TierLevel.GPU)
    with pytest.raises(InvariantViolation):
        validate_engine(engine)


def test_detects_phantom_durability(engine, context):
    engine.checkpoint(0, make_buffer(context, CKPT))
    engine.wait_for_flushes()
    engine.ssd.delete(engine.store_key(engine.catalog.get(0)))
    with pytest.raises(InvariantViolation):
        validate_engine(engine)


def test_detects_size_mismatch(engine, context):
    engine.checkpoint(0, make_buffer(context, CKPT))
    engine.wait_for_flushes()
    record = engine.catalog.get(0)
    with engine.monitor:
        engine.gpu_cache.table.lookup(record.ckpt_id).size -= 1
    with pytest.raises(InvariantViolation):
        validate_engine(engine)


def _cached_workload(engine, context):
    """Fill the GPU cache with flushed checkpoints, then write one more: its
    scan memoises the flushed members' costs, which no later event drops."""
    for v in range(5):
        engine.checkpoint(v, make_buffer(context, CKPT, seed=v))
        engine.wait_for_flushes()
    validate_engine(engine)


def test_detects_stale_memoised_cost(engine, context):
    from repro.core.scoring import BARRIER

    _cached_workload(engine, context)
    memo = engine.gpu_cache.costs[False].p
    assert memo, "the evictions scanned the GPU cache"
    ckpt_id, p = next(iter(memo.items()))
    with engine.monitor:
        memo[ckpt_id] = 0 if p == BARRIER else BARRIER  # a state change nobody announced
    with pytest.raises(InvariantViolation, match="memoised p"):
        validate_engine(engine)


def test_detects_stale_hint_distance(engine, context):
    _cached_workload(engine, context)
    cached = [f.record.ckpt_id for f in engine.gpu_cache.table.fragments() if not f.is_gap]
    engine.prefetch_enqueue(cached[-1])
    engine.prefetch_enqueue(cached[0])
    with engine.monitor:
        engine.queue.hint_index()[cached[0]] = 0  # a distance move nobody announced
    with pytest.raises(InvariantViolation, match="scores distance"):
        validate_engine(engine)
