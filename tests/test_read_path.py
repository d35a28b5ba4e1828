"""The one read path: ``ScoreEngine._promote_from_store``.

A promotion off a storage tier is one ``open_get`` → per-chunk ``read`` →
``finish`` loop whose placement policy is the set of extents it lands in:
``{host}``, ``{gpu}`` (GPUDirect) or ``{gpu, host}`` (fused, many-chunk
plans only).  These tests drive that function directly:

* a fused read lands both extents from exactly one store read;
* a fused read whose non-blocking GPU claim loses lands the host alone;
* a failed read releases every reservation, and an H2D fault under a fused
  read keeps the host copy while the demand restore retries;
* a one-chunk read returns accounted link seconds, not clock time;
* ``StreamConfig.enabled`` with a one-chunk plan makes the same placement
  decisions as the flag off.
"""

import pytest

from repro.config import StreamConfig
from repro.core.engine import ScoreEngine
from repro.core.lifecycle import CkptState
from repro.core.validator import validate_engine
from repro.errors import CheckpointNotFound, TransientTransferError
from repro.tiers.base import TierLevel
from repro.tiers.topology import Cluster
from repro.util.units import MiB
from tests.conftest import both_chunk_plans, make_buffer, tiny_config

CKPT = 128 * MiB
GPU, HOST, SSD = TierLevel.GPU, TierLevel.HOST, TierLevel.SSD

MANY_CHUNKS = StreamConfig(enabled=True)  # 128 MiB = eight 16 MiB chunks
#: the flag on, but every 128 MiB object still under two chunks.
ONE_CHUNK_ON = StreamConfig(enabled=True, stream_chunk_bytes=256 * MiB)


def _engine(stream, **engine_kwargs):
    """A telemetry-on cluster and one engine; the caller closes both."""
    cluster = Cluster(tiny_config(telemetry=True, stream=stream))
    ctx = cluster.process_contexts()[0]
    return cluster, ctx, ScoreEngine(ctx, **engine_kwargs)


def _ssd_only(engine, ctx, ckpt_id=0, seed=0):
    """Checkpoint ``ckpt_id``, flush it, drop its cache copies; returns
    ``(record, checksum)``."""
    buf = make_buffer(ctx, CKPT, seed=seed)
    engine.checkpoint(ckpt_id, buf)
    engine.wait_for_flushes(timeout=600.0)
    record = engine.catalog.get(ckpt_id)
    engine.gpu_cache.release(record)
    engine.host_cache.release(record)
    assert record.fastest_cached_level() is None
    return record, buf.checksum()


def _state(record, level):
    inst = record.peek(level)
    return None if inst is None else inst.state


def _quiesce(engine):
    """Block until the prefetcher has nothing left it may do."""

    def idle():
        return engine.prefetcher._pick_task() is None and not any(
            r.prefetch_inflight for r in engine.catalog.all_records()
        )

    with engine.monitor:
        assert engine.monitor.wait_for(idle, virtual_timeout=600.0)


class _OneShotFault:
    """A link fault injector that fails the next transfer halfway."""

    def __init__(self):
        self.armed = False
        self.fired = 0

    def draw(self, nbytes):
        if not self.armed:
            return None
        self.armed = False
        return nbytes // 2

    def fault(self, nbytes, moved):
        self.fired += 1
        return TransientTransferError("injected h2d fault", bytes_moved=moved)


class TestFusedLanding:
    def test_one_read_lands_gpu_and_host(self):
        cluster, ctx, engine = _engine(MANY_CHUNKS)
        with cluster, engine:
            record, checksum = _ssd_only(engine, ctx)
            registry = cluster.telemetry.registry
            reads_before = registry.counter("tier.ssd.read_ops").value
            engine.prefetch_enqueue(0)
            engine.prefetch_start()
            _quiesce(engine)
            engine.prefetcher.stop()  # joins: the step's counters are final
            assert engine.prefetcher.promotions == 1
            assert _state(record, GPU) is CkptState.READ_COMPLETE
            assert _state(record, HOST) is CkptState.READ_COMPLETE
            assert registry.counter("tier.ssd.read_ops").value == reads_before + 1
            chunks = engine.chunks_for(CKPT)
            assert chunks == 8
            events = cluster.telemetry.bus.snapshot()
            for name in ("read-chunk", "h2d-chunk"):
                slices = [ev for ev in events if ev.name == name]
                assert sorted(ev.args["chunk"] for ev in slices) == list(range(chunks))
                assert sum(ev.args["bytes"] for ev in slices) == CKPT
            validate_engine(engine)
            out = ctx.device.alloc_buffer(CKPT)
            engine.restore(0, out)
            assert out.checksum() == checksum

    def test_lost_gpu_claim_lands_host_alone(self):
        cluster, ctx, engine = _engine(MANY_CHUNKS)
        with cluster, engine:
            for v in range(5):  # v0 falls out of the 4-slot GPU cache
                engine.checkpoint(v, make_buffer(ctx, CKPT, seed=v))
            engine.wait_for_flushes(timeout=600.0)
            record = engine.catalog.get(0)
            assert record.peek(GPU) is None
            engine.host_cache.release(record)
            with engine.monitor:
                # Pin every GPU extent as prefetched-but-unconsumed.
                for v in range(1, 5):
                    engine.catalog.get(v).peek(GPU).transition(
                        CkptState.READ_COMPLETE, engine.clock.now()
                    )
            assert engine.fuses_host_promotion(record, SSD)
            seconds = engine.promote_once(
                record, SSD, HOST, blocking=False, allow_pinned=False
            )
            assert seconds is not None and seconds > 0
            assert _state(record, HOST) is CkptState.READ_COMPLETE
            assert record.peek(GPU) is None
            validate_engine(engine)


class TestFailureReleasesEverything:
    def test_h2d_fault_keeps_host_copy_and_restore_retries(self):
        cluster, ctx, engine = _engine(MANY_CHUNKS)
        with cluster, engine:
            record, checksum = _ssd_only(engine, ctx)
            fault = engine.device.h2d_link.fault_injector = _OneShotFault()
            fault.armed = True
            with pytest.raises(TransientTransferError):
                engine.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)
            assert fault.fired == 1
            assert _state(record, HOST) is CkptState.READ_COMPLETE
            assert record.peek(GPU) is None
            validate_engine(engine)
            # Again through a demand restore: the fused read's crossing
            # fails, the restore backs off and finishes over the host copy.
            engine.host_cache.release(record)
            fault.armed = True
            out = ctx.device.alloc_buffer(CKPT)
            engine.restore(0, out)
            assert fault.fired == 2
            assert out.checksum() == checksum
            validate_engine(engine)

    @both_chunk_plans
    def test_failed_gpudirect_read_releases_gpu_claim(self, stream):
        cluster, ctx, engine = _engine(stream, gpudirect=True)
        with cluster, engine:
            record, _ = _ssd_only(engine, ctx)
            engine.ssd.delete(engine.store_key(record))
            with pytest.raises(CheckpointNotFound):
                engine.promote_once(record, SSD, GPU, blocking=True, allow_pinned=True)
            assert record.peek(GPU) is None and record.peek(HOST) is None
            with engine.monitor:
                # The checkpoint is gone for good; a leaked extent would now
                # be a fragment of an unknown checkpoint.
                engine.catalog.forget(0)
            validate_engine(engine)


class TestOneChunkPlan:
    @pytest.mark.parametrize(
        "stream", [StreamConfig(), ONE_CHUNK_ON], ids=["flag-off", "flag-on"]
    )
    def test_seconds_are_link_accounted(self, stream):
        cluster, ctx, engine = _engine(stream)
        with cluster, engine:
            record, _ = _ssd_only(engine, ctx)
            nominal = engine.ssd.read_link.estimate(CKPT, include_pending=False)
            seconds = engine.promote_once(
                record, SSD, HOST, blocking=True, allow_pinned=True
            )
            # The clock-measured duration reads 3-4x nominal at this scale.
            assert nominal <= seconds <= 1.25 * nominal
            assert _state(record, HOST) is CkptState.READ_COMPLETE
            assert record.peek(GPU) is None
            names = {ev.name for ev in cluster.telemetry.bus.snapshot()}
            assert not names & {"read-chunk", "h2d-chunk"}

    @both_chunk_plans
    def test_gpudirect_lands_gpu_only(self, stream):
        cluster, ctx, engine = _engine(stream, gpudirect=True)
        with cluster, engine:
            record, checksum = _ssd_only(engine, ctx)
            assert engine.promotion_step(record) == (SSD, GPU)
            seconds = engine.promote_once(
                record, SSD, GPU, blocking=True, allow_pinned=True
            )
            assert _state(record, GPU) is CkptState.READ_COMPLETE
            assert record.peek(HOST) is None
            if not stream.enabled:
                nominal = engine.ssd.read_link.estimate(
                    CKPT, include_pending=False
                ) + engine.device.h2d_link.estimate(CKPT, include_pending=False)
                assert nominal <= seconds <= 1.25 * nominal
            validate_engine(engine)
            out = ctx.device.alloc_buffer(CKPT)
            engine.restore(0, out)
            assert out.checksum() == checksum


def _hinted_placement(stream):
    """24 hinted checkpoints; what the prefetcher staged once it went idle."""
    cluster, ctx, engine = _engine(stream)
    with cluster, engine:
        for v in range(24):
            engine.checkpoint(v, make_buffer(ctx, CKPT, seed=v))
        engine.wait_for_flushes(timeout=600.0)
        for v in range(24):
            engine.prefetch_enqueue(v)
        engine.prefetch_start()
        _quiesce(engine)
        engine.prefetcher.stop()
        staged = {
            level: sorted(
                r.ckpt_id
                for r in engine.catalog.all_records()
                if _state(r, level) is CkptState.READ_COMPLETE
            )
            for level in (GPU, HOST)
        }
        validate_engine(engine)
        return engine.prefetcher.promotions, staged


def test_one_chunk_plan_places_the_same_whatever_the_flag_says():
    """The fusion rule has one home: with every object under two chunks,
    ``stream.enabled`` changes neither how many promotions the prefetcher
    makes nor where they land (the host-staging budget check used to read
    the flag and stop one promotion short)."""
    assert _hinted_placement(ONE_CHUNK_ON) == _hinted_placement(StreamConfig())
