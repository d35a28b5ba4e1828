"""ADIOS2-like and UVM comparator runtimes."""

import pytest

from repro.baselines.adios2 import Adios2Engine
from repro.baselines.uvm_runtime import UvmEngine
from repro.errors import (
    CheckpointNotFound,
    EngineClosedError,
    IntegrityError,
    LifecycleError,
)
from repro.config import ScaleModel
from repro.tiers.topology import Cluster
from repro.util.units import KiB, MiB
from tests.conftest import make_buffer, tiny_config

CKPT = 128 * MiB


@pytest.fixture
def adios2(context):
    eng = Adios2Engine(context)
    yield eng
    eng.close()


@pytest.fixture
def uvm(context):
    eng = UvmEngine(context)
    yield eng
    eng.close()


class TestAdios2:
    def test_roundtrip(self, adios2, context):
        buf = make_buffer(context, CKPT, seed=1)
        expected = buf.checksum()
        adios2.checkpoint(0, buf)
        out = context.device.alloc_buffer(CKPT)
        adios2.restore(0, out)
        assert out.checksum() == expected

    def test_duplicate_rejected(self, adios2, context):
        adios2.checkpoint(0, make_buffer(context, CKPT))
        with pytest.raises(LifecycleError):
            adios2.checkpoint(0, make_buffer(context, CKPT))

    def test_unknown_restore_raises(self, adios2, context):
        with pytest.raises(CheckpointNotFound):
            adios2.restore(9, make_buffer(context, CKPT))

    def test_drains_to_ssd(self, adios2, context):
        for v in range(4):
            adios2.checkpoint(v, make_buffer(context, CKPT, seed=v))
        adios2.wait_for_flushes()
        assert adios2.ssd.object_count() == 4
        assert adios2.stats()["staged_bytes"] == 0

    def test_staging_backpressure(self, adios2, context):
        """More data than staging capacity forces blocking on the drain."""
        n = 20  # 20 * 128 MiB > 2 GiB staging
        for v in range(n):
            adios2.checkpoint(v, make_buffer(context, CKPT, seed=v))
        adios2.wait_for_flushes()
        assert adios2.ssd.object_count() == n

    def test_restore_waits_for_drain(self, adios2, context):
        """BP5 steps are readable only from storage."""
        buf = make_buffer(context, CKPT, seed=2)
        adios2.checkpoint(0, buf)
        out = context.device.alloc_buffer(CKPT)
        adios2.restore(0, out)  # must block on the deferred drain
        assert adios2.ssd.contains((adios2.process_id, 0))

    def test_hints_accepted_but_ignored(self, adios2, context):
        adios2.prefetch_enqueue(0)
        adios2.prefetch_start()

    def test_recover_size(self, adios2, context):
        adios2.checkpoint(0, make_buffer(context, CKPT))
        assert adios2.recover_size(0) == CKPT

    def test_closed_rejects_ops(self, context):
        eng = Adios2Engine(context)
        eng.close()
        with pytest.raises(EngineClosedError):
            eng.checkpoint(0, make_buffer(context, CKPT))

    def test_serialization_slows_ops(self, adios2, context):
        blocked = adios2.checkpoint(0, make_buffer(context, CKPT))
        # serialization at 0.5 GiB/s alone costs 0.25 s for 128 MiB
        assert blocked >= 0.25


class TestUvmEngine:
    def test_roundtrip(self, uvm, context):
        buf = make_buffer(context, CKPT, seed=1)
        expected = buf.checksum()
        uvm.checkpoint(0, buf)
        out = context.device.alloc_buffer(CKPT)
        uvm.restore(0, out)
        assert out.checksum() == expected

    def test_duplicate_rejected(self, uvm, context):
        uvm.checkpoint(0, make_buffer(context, CKPT))
        with pytest.raises(LifecycleError):
            uvm.checkpoint(0, make_buffer(context, CKPT))

    def test_consumed_twice_rejected(self, uvm, context):
        uvm.checkpoint(0, make_buffer(context, CKPT))
        out = context.device.alloc_buffer(CKPT)
        uvm.restore(0, out)
        with pytest.raises(LifecycleError):
            uvm.restore(0, out)

    def test_history_beyond_budget_spills_to_ssd(self, uvm, context):
        sums = {}
        n = 20  # 2.5 GiB > 2 GiB host budget
        for v in range(n):
            buf = make_buffer(context, CKPT, seed=v)
            sums[v] = buf.checksum()
            uvm.checkpoint(v, buf)
        uvm.wait_for_flushes()
        out = context.device.alloc_buffer(CKPT)
        for v in range(n):
            uvm.restore(v, out)
            assert out.checksum() == sums[v]

    def test_restore_after_drop_reads_ssd(self, uvm, context):
        for v in range(20):
            uvm.checkpoint(v, make_buffer(context, CKPT, seed=v))
        uvm.wait_for_flushes()
        sources = []
        out = context.device.alloc_buffer(CKPT)
        for v in range(20):
            uvm.restore(v, out)
        sources = [e.source_level for e in uvm.recorder.restores()]
        assert "SSD" in sources  # dropped entries re-read from storage

    def test_hints_prefetch_resident_data(self, uvm, context):
        for v in range(4):
            uvm.checkpoint(v, make_buffer(context, CKPT, seed=v))
        uvm.wait_for_flushes()
        for v in range(4):
            uvm.prefetch_enqueue(v)
        uvm.prefetch_start()
        out = context.device.alloc_buffer(CKPT)
        for v in range(4):
            uvm.clock.sleep(0.05)
            uvm.restore(v, out)
        assert uvm.uvm.prefetched_bytes >= 0  # mechanism exercised

    def test_faults_counted(self, uvm, context):
        uvm.checkpoint(0, make_buffer(context, CKPT))
        uvm.uvm.synchronize()  # advise-out migration completes
        out = context.device.alloc_buffer(CKPT)
        uvm.restore(0, out)
        assert uvm.uvm.fault_count > 0  # restore faulted pages back in

    def test_corruption_detected(self, uvm, context):
        for v in range(20):
            uvm.checkpoint(v, make_buffer(context, CKPT, seed=v))
        uvm.wait_for_flushes()
        # entry 0 should have been dropped to SSD; corrupt it there
        payload, _ = uvm.ssd.get((uvm.process_id, 0))
        payload = payload.copy()  # get() returns a read-only view
        payload[0] ^= 0xFF
        uvm.ssd.put((uvm.process_id, 0), payload, 128 * MiB)
        entry = uvm._checkpoints[0]
        if entry.alloc is None:  # only meaningful when actually dropped
            with pytest.raises(IntegrityError):
                uvm.restore(0, context.device.alloc_buffer(CKPT))

    def test_stats_shape(self, uvm, context):
        uvm.checkpoint(0, make_buffer(context, CKPT))
        stats = uvm.stats()
        for key in ("checkpoints", "live_uvm_bytes", "faults", "evicted_bytes"):
            assert key in stats

    def test_closed_rejects_ops(self, context):
        eng = UvmEngine(context)
        eng.close()
        with pytest.raises(EngineClosedError):
            eng.checkpoint(0, make_buffer(context, CKPT))

    def test_a_checkpoint_short_of_pinned_room_waits_out_the_ramp_exactly(self):
        """Under lazy pinning the usable host budget grows at
        ``host_pin_bandwidth`` from the engine's start: a first checkpoint
        blocks until the pinned prefix covers it, the closed-form ramp time
        (the eager run's blocking being the rest), not a multiple of a poll
        period."""
        scale = ScaleModel(data_scale=512 * KiB, time_scale=1.0, alignment=512 * KiB)
        blocked = {}
        for lazy in (False, True):
            with Cluster(tiny_config(scale=scale, charge_allocation_cost=lazy)) as cluster:
                context = cluster.process_contexts()[0]
                buf = make_buffer(context, CKPT)
                with UvmEngine(context) as engine:
                    blocked[lazy] = engine.checkpoint(0, buf)
        ramp = CKPT / context.spec.host_pin_bandwidth  # 31.25 ms
        assert blocked[True] - blocked[False] == pytest.approx(ramp, abs=1e-3)
