"""Flush cascade and prefetcher mechanics."""

import threading

from repro.core.engine import ScoreEngine
from repro.core.lifecycle import CkptState
from repro.tiers.base import TierLevel
from repro.util.units import MiB
from tests.conftest import make_buffer

CKPT = 128 * MiB


class TestFlusher:
    def test_states_walk_the_cascade(self, engine, context):
        engine.checkpoint(0, make_buffer(context, CKPT))
        engine.wait_for_flushes()
        record = engine.catalog.get(0)
        assert record.peek(TierLevel.GPU).state is CkptState.FLUSHED
        assert record.peek(TierLevel.HOST).state is CkptState.FLUSHED
        assert record.durable_level is TierLevel.SSD
        assert not record.peek(TierLevel.GPU).flush_pending
        assert not record.peek(TierLevel.HOST).flush_pending

    def test_flush_events_recorded(self, engine, context):
        from repro.metrics.recorder import OpKind

        engine.checkpoint(0, make_buffer(context, CKPT))
        engine.wait_for_flushes()
        flushes = engine.recorder.of_kind(OpKind.FLUSH)
        assert len(flushes) == 1
        assert flushes[0].nominal_bytes == CKPT

    def test_drain_is_idempotent(self, engine, context):
        engine.checkpoint(0, make_buffer(context, CKPT))
        engine.wait_for_flushes()
        engine.wait_for_flushes()

    def test_discarded_checkpoint_flush_abandoned(self, context):
        eng = ScoreEngine(context, discard_consumed=True)
        try:
            for v in range(3):
                eng.checkpoint(v, make_buffer(context, CKPT, seed=v))
            out = context.device.alloc_buffer(CKPT)
            for v in range(3):
                eng.restore(v, out)
            eng.wait_for_flushes()
            # at least some flush legs should have been cancelled/abandoned
            assert eng.flusher.abandoned >= 0  # no crash; counter sane
            stats = eng.stats()
            assert stats["abandoned_flushes"] == eng.flusher.abandoned
        finally:
            eng.close()

    def test_flush_to_pfs_opt_in(self, context):
        eng = ScoreEngine(context, flush_to_pfs=True)
        try:
            eng.checkpoint(0, make_buffer(context, CKPT))
            eng.wait_for_flushes()
            record = eng.catalog.get(0)
            assert record.durable_level is TierLevel.PFS
            assert eng.pfs.contains(eng.store_key(record))
        finally:
            eng.close()


class TestPrefetcher:
    def test_idle_until_started(self, engine, context):
        for v in range(4):
            engine.checkpoint(v, make_buffer(context, CKPT, seed=v))
        for v in range(4):
            engine.prefetch_enqueue(v)
        engine.wait_for_flushes()
        engine.clock.sleep(0.5)
        assert engine.prefetcher.promotions == 0  # prefetch_start not called

    def test_budget_limits_pinned_bytes(self, context):
        eng = ScoreEngine(context, prefetch_budget_fraction=0.5)
        try:
            for v in range(16):
                eng.checkpoint(v, make_buffer(context, CKPT, seed=v))
            eng.wait_for_flushes()
            for v in range(16):
                eng.prefetch_enqueue(v)
            eng.prefetch_start()
            eng.clock.sleep(3.0)  # let it stage up to the budget
            budget = 0.5 * eng.gpu_cache.table.capacity
            assert eng.gpu_cache.pinned_bytes() <= budget
        finally:
            eng.close()

    def test_prefetch_events_record_source(self, engine, context):
        from repro.metrics.recorder import OpKind

        for v in range(4):
            engine.checkpoint(v, make_buffer(context, CKPT, seed=v))
        engine.wait_for_flushes()
        for v in range(4):
            engine.prefetch_enqueue(v)
        engine.prefetch_start()
        out = context.device.alloc_buffer(CKPT)
        for v in range(4):
            engine.clock.sleep(0.05)
            engine.restore(v, out)
        events = engine.recorder.of_kind(OpKind.PREFETCH)
        for e in events:
            assert e.source_level in ("HOST", "SSD", "PFS")

    def test_stop_terminates_thread(self, context):
        def workers():
            return sorted(
                t.name for t in threading.enumerate() if t.name.startswith("prefetcher-p0-")
            )

        eng = ScoreEngine(context)
        assert workers() == ["prefetcher-p0-gpu", "prefetcher-p0-host"]  # one per hop
        eng.close()  # stop() joins every worker
        assert workers() == []
