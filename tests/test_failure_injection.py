"""Failure injection: the runtime must degrade cleanly, not corrupt."""

import threading

import numpy as np
import pytest

from repro.core.engine import ScoreEngine
from repro.core.sync import Monitor
from repro.core.validator import validate_engine
from repro.clock import VirtualClock
from repro.errors import CheckpointNotFound, TransferError
from repro.tiers.base import TierLevel
from repro.tiers.topology import Cluster
from repro.util.units import MiB
from tests.conftest import both_chunk_plans, make_buffer, tiny_config

CKPT = 128 * MiB


class FlakySsd:
    """Wraps an SsdStore; fails the first N puts at their open (the flush
    cascade writes through ``open_put``; ``put`` is its one-chunk form)."""

    def __init__(self, inner, failures):
        self._inner = inner
        self._failures = failures
        self._lock = threading.Lock()
        self.put_attempts = 0

    def open_put(self, key, nominal_size, payload_size, **kw):
        with self._lock:
            self.put_attempts += 1
            if self._failures > 0:
                self._failures -= 1
                raise TransferError("injected SSD write failure")
        return self._inner.open_put(key, nominal_size, payload_size, **kw)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestSsdWriteFailures:
    def test_failed_flush_abandoned_but_data_still_cached(self, context):
        engine = ScoreEngine(context)
        flaky = FlakySsd(engine.ssd, failures=1)
        engine.ssd = flaky
        try:
            buf = make_buffer(context, CKPT, seed=1)
            expected = buf.checksum()
            engine.checkpoint(0, buf)
            engine.wait_for_flushes()
            # The h2f leg failed: checkpoint not durable, flush abandoned.
            record = engine.catalog.get(0)
            assert record.durable_level is None
            assert engine.flusher.abandoned >= 1
            # But the cached copy still serves the restore correctly.
            out = context.device.alloc_buffer(CKPT)
            engine.restore(0, out)
            assert out.checksum() == expected
        finally:
            engine.close()

    def test_later_checkpoints_unaffected(self, context):
        engine = ScoreEngine(context)
        engine.ssd = FlakySsd(engine.ssd, failures=1)
        try:
            for v in range(3):
                engine.checkpoint(v, make_buffer(context, CKPT, seed=v))
            engine.wait_for_flushes()
            durable = [
                engine.catalog.get(v).durable_level is TierLevel.SSD for v in range(3)
            ]
            assert durable.count(True) == 2  # exactly the injected failure lost
        finally:
            engine.close()


class TestStoreCorruptionPaths:
    @both_chunk_plans
    def test_missing_ssd_object_surfaces(self, stream):
        """Deleting the only durable copy makes a later demand fetch fail
        loudly (CheckpointNotFound), never silently — and the failed read
        gives back every extent it had reserved."""
        with Cluster(tiny_config(stream=stream)) as cluster:
            context = cluster.process_contexts()[0]
            with ScoreEngine(context) as engine:
                for v in range(24):  # push v0 out of both caches
                    engine.checkpoint(v, make_buffer(context, CKPT, seed=v))
                engine.wait_for_flushes()
                record = engine.catalog.get(0)
                assert record.fastest_cached_level() is None  # truly SSD-only
                engine.ssd.delete(engine.store_key(record))
                with pytest.raises(CheckpointNotFound):
                    # the demand promotion hits the missing object
                    engine.promote_once(
                        record,
                        TierLevel.SSD,
                        TierLevel.HOST,
                        blocking=True,
                        allow_pinned=True,
                    )
                assert record.peek(TierLevel.HOST) is None
                assert record.peek(TierLevel.GPU) is None
                with engine.monitor:
                    # The checkpoint is gone for good; a leaked extent would
                    # now be a fragment of an unknown checkpoint.
                    engine.catalog.forget(0)
                validate_engine(engine)


class TestMonitorBasics:
    def test_wait_for_timeout_in_virtual_units(self):
        clock = VirtualClock(time_scale=0.002)
        mon = Monitor(clock)
        with mon:
            before = clock.now()
            ok = mon.wait_for(lambda: False, virtual_timeout=1.0)
            elapsed = clock.now() - before
        assert not ok
        assert elapsed >= 1.0

    def test_reentrant(self):
        mon = Monitor(VirtualClock(time_scale=0.002))
        with mon:
            with mon:  # RLock: no deadlock
                mon.notify_all()


class TestPayloadEdgeCases:
    def test_smallest_possible_checkpoint(self, engine, context):
        size = context.scale.alignment  # one allocation unit
        buf = context.device.alloc_buffer(size)
        buf.payload[:] = 7
        engine.checkpoint(0, buf)
        out = context.device.alloc_buffer(size)
        engine.restore(0, out)
        assert np.array_equal(out.payload, buf.payload)

    def test_checkpoint_exactly_cache_sized(self, engine, context):
        size = engine.gpu_cache.table.capacity  # fills the GPU cache alone
        buf = context.device.alloc_buffer(size)
        buf.payload[:] = 9
        engine.checkpoint(0, buf)
        engine.wait_for_flushes()
        out = context.device.alloc_buffer(size)
        engine.restore(0, out)
        assert np.array_equal(out.payload, buf.payload)

    def test_mixed_sizes_sequence(self, engine, context):
        sizes = [context.scale.alignment, 64 * MiB, CKPT, 32 * MiB, 256 * MiB]
        sums = {}
        for v, size in enumerate(sizes):
            buf = make_buffer(context, size, seed=v)
            sums[v] = buf.checksum()
            engine.checkpoint(v, buf)
        engine.wait_for_flushes()
        for v, size in enumerate(sizes):
            out = context.device.alloc_buffer(size)
            engine.restore(v, out)
            assert out.checksum() == sums[v]
