"""The five conditions of the paper's problem formulation (Section 2),
each verified against the runtime directly.

(1) a checkpoint request blocks only until the data is in the GPU cache;
(2) a checkpoint can be read back while its flushes are still pending;
(3) the runtime prefetches according to the restore order;
(4) a prefetched checkpoint is not evicted before it is consumed;
(5) pending flushes of a discarded (consumed) checkpoint need not complete.
"""


from repro.config import CacheConfig
from repro.core.engine import ScoreEngine
from repro.core.lifecycle import CkptState
from repro.tiers.base import TierLevel
from repro.tiers.topology import Cluster
from repro.util.units import MiB
from tests.conftest import make_buffer, tiny_config

CKPT = 128 * MiB
#: nominal seconds a prefetch worker gets to stage its first checkpoint
#: (a 128 MiB SSD→host→GPU promotion takes ~40 ms).
PREFETCH_TIMEOUT_S = 30.0


class TestCondition1:
    def test_checkpoint_returns_before_flush_completes(self, engine, context):
        """Blocking time excludes the asynchronous flush cascade."""
        blocked = engine.checkpoint(0, make_buffer(context, CKPT))
        record = engine.catalog.get(0)
        # At return time the slower tiers may not hold the data yet.
        assert record.peek(TierLevel.GPU).has_copy
        # The D2D copy of 128 MiB at 1 TB/s is ~0.12 ms; blocking stays far
        # below the ~23 ms SSD leg even with scheduling noise on top.
        assert blocked < 0.015

    def test_flush_continues_after_return(self, engine, context):
        engine.checkpoint(0, make_buffer(context, CKPT))
        engine.wait_for_flushes()
        assert engine.catalog.get(0).durable_level is TierLevel.SSD


class TestCondition2:
    def test_read_back_while_flush_pending(self, engine, context):
        """The write-path instance serves the restore (crossover edge)."""
        buf = make_buffer(context, CKPT, seed=3)
        expected = buf.checksum()
        engine.checkpoint(0, buf)
        out = context.device.alloc_buffer(CKPT)
        engine.restore(0, out)  # no wait_for_flushes in between
        assert out.checksum() == expected
        # And the flush still completes for the (non-discarded) checkpoint.
        engine.wait_for_flushes()
        assert engine.ssd.contains(engine.store_key(engine.catalog.get(0)))


class TestCondition3:
    def test_prefetch_follows_restore_order(self, engine, context):
        n = 12
        for v in range(n):
            engine.checkpoint(v, make_buffer(context, CKPT, seed=v))
        engine.wait_for_flushes()
        order = list(reversed(range(n)))
        for v in order:
            engine.prefetch_enqueue(v)
        engine.prefetch_start()
        from repro.metrics.recorder import OpKind

        def staged():
            return [e.ckpt_id for e in engine.recorder.of_kind(OpKind.PREFETCH)]

        # Let the prefetcher stage the head: a nominal wait for two stagings,
        # not a fixed sleep, which at wall pace can end before the first.
        with engine.monitor:
            engine.monitor.wait_for(lambda: len(staged()) >= 2, virtual_timeout=PREFETCH_TIMEOUT_S)
        prefetched = staged()
        assert prefetched, "prefetcher made no progress"
        # First promotions target the head of the restore order.
        head = set(order[:6])
        assert set(prefetched[:2]) <= head


class TestCondition4:
    def test_prefetched_pinned_until_consumed(self, engine, context):
        n = 12
        for v in range(n):
            engine.checkpoint(v, make_buffer(context, CKPT, seed=v))
        engine.wait_for_flushes()
        for v in range(n):
            engine.prefetch_enqueue(v)
        engine.prefetch_start()

        def staged_and_pinned():
            return any(
                not frag.is_gap
                and (gpu := frag.record.peek(TierLevel.GPU)) is not None
                and gpu.state is CkptState.READ_COMPLETE
                and gpu.pinned
                for frag in engine.gpu_cache.table.fragments()
            )

        with engine.monitor:
            engine.monitor.wait_for(staged_and_pinned, virtual_timeout=PREFETCH_TIMEOUT_S)
            pinned = [
                frag.record.ckpt_id
                for frag in engine.gpu_cache.table.fragments()
                if not frag.is_gap
                and frag.record.peek(TierLevel.GPU) is not None
                and frag.record.peek(TierLevel.GPU).pinned
            ]
        assert pinned, "nothing prefetched onto the GPU cache"
        # Writing more checkpoints must not evict the pinned extents.
        for v in range(n, n + 4):
            engine.checkpoint(v, make_buffer(context, CKPT, seed=v))
        with engine.monitor:
            still_there = [
                cid for cid in pinned if engine.gpu_cache.table.contains(cid)
            ]
        assert still_there == pinned

    def test_host_stagings_never_hold_the_flush_a_demand_restore_waits_on(self):
        """The wait-for cycle of a host full of stagings: the GPU holds a
        hint staging and a fresh checkpoint whose flush needs host room; the
        host holds four hint stagings, which only consumption frees; the
        demand restore of the first needs the GPU room that flush frees.
        A host staging duplicates a durable copy, so the flush revokes the
        farthest one and the restore goes through."""
        cfg = tiny_config(cache=CacheConfig(gpu_cache_size=2 * CKPT, host_cache_size=4 * CKPT))
        with Cluster(cfg) as cluster:
            context = cluster.process_contexts()[0]
            with ScoreEngine(context) as engine:
                for v in range(8):
                    engine.checkpoint(v, make_buffer(context, CKPT, seed=v))
                engine.wait_for_flushes()
                catalog = engine.catalog
                staged = [v for v in range(8) if catalog.get(v).peek(TierLevel.HOST) is None]
                for v in staged:  # four stagings fill the host
                    engine.promote_once(catalog.get(v), TierLevel.SSD, TierLevel.HOST)
                    engine.prefetch_enqueue(v)  # restore order; the workers stay parked
                engine.promote_once(catalog.get(staged[1]), TierLevel.HOST, TierLevel.GPU)
                engine.checkpoint(99, make_buffer(context, CKPT, seed=99))  # GPU: staging + write
                out = context.device.alloc_buffer(CKPT)
                expected = make_buffer(context, CKPT, seed=staged[0]).checksum()
                engine.restore(staged[0], out)
                assert out.checksum() == expected
                engine.wait_for_flushes()
                assert catalog.get(99).durable_level is TierLevel.SSD
                with engine.monitor:
                    fragments = engine.host_cache.table.fragments()
                    host = {frag.record.ckpt_id for frag in fragments if not frag.is_gap}
                assert staged[-1] not in host and set(staged[1:-1]) <= host
                assert engine.host_cache.forced_evictions == 1
                assert cluster.telemetry.registry.counter("engine.swallowed_errors").value == 0


class TestCondition5:
    def test_discarded_flushes_abandoned(self, context):
        eng = ScoreEngine(context, discard_consumed=True)
        try:
            sums = {}
            for v in range(4):
                buf = make_buffer(context, CKPT, seed=v)
                sums[v] = buf.checksum()
                eng.checkpoint(v, buf)
            out = context.device.alloc_buffer(CKPT)
            for v in range(4):
                eng.restore(v, out)
                assert out.checksum() == sums[v]
                assert eng.catalog.get(v).cancel_flush.is_set()
            eng.wait_for_flushes()  # must settle without errors
        finally:
            eng.close()

    def test_unconsumed_checkpoints_still_persist(self, context):
        """Discard applies only to consumed checkpoints; the rest flush."""
        eng = ScoreEngine(context, discard_consumed=True)
        try:
            for v in range(4):
                eng.checkpoint(v, make_buffer(context, CKPT, seed=v))
            out = context.device.alloc_buffer(CKPT)
            eng.restore(0, out)  # only v0 consumed
            eng.wait_for_flushes()
            for v in (1, 2, 3):
                assert eng.ssd.contains((eng.process_id, v))
        finally:
            eng.close()


class TestHintAdvisoriness:
    """Hints are advisory: the order may deviate (Section 4.1.1)."""

    def test_full_deviation_still_correct(self, engine, context):
        n = 10
        sums = {}
        for v in range(n):
            buf = make_buffer(context, CKPT, seed=v)
            sums[v] = buf.checksum()
            engine.checkpoint(v, buf)
        engine.wait_for_flushes()
        for v in range(n):  # hint sequential...
            engine.prefetch_enqueue(v)
        engine.prefetch_start()
        out = context.device.alloc_buffer(CKPT)
        for v in reversed(range(n)):  # ...restore in reverse
            engine.restore(v, out)
            assert out.checksum() == sums[v]
        # Deviation may force-evict prefetched extents; count is sane.
        assert engine.gpu_cache.forced_evictions >= 0
