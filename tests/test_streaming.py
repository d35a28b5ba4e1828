"""Pipelined chunk streaming through the flush/prefetch cascade.

The acceptance bar for the streaming subsystem:

* ``StreamConfig.enabled=False`` changes nothing — the same discipline as
  ``SchedConfig`` / ``ReduceConfig`` / ``FaultConfig``: every flush plans
  one chunk whatever the other knobs say, with identical eviction decision
  streams, cache layouts, tier byte counters, store metadata and restored
  bytes, and the ``flush.stream.*`` metrics stay at zero;
* streaming on, the cascade restores bit-identical bytes, reports pipeline
  counts and overlap/stall gauges, and composes with the reduction
  pipeline (chunk recipes reconstruct, CRCs verify) and with GPUDirect;
* an SSD failure mid-stream reroutes to the PFS, replaying the chunks the
  dead put had consumed, and the rerouted checkpoint restores verified
  bytes (crash points, outage/backfill and corruption run under both chunk
  plans in ``test_faults_recovery.py``);
* (property) one-chunk and many-chunk runs restore identical payload
  checksums for arbitrary snapshot-size mixes.

Plus unit coverage of the chunk planner, the ring-buffer backpressure
fabric itself, the event-driven completion callbacks, and the drain
sweep.
"""

import threading
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.config import (
    CacheConfig,
    FaultConfig,
    HardwareSpec,
    ReduceConfig,
    StreamConfig,
)
from repro.core.engine import ScoreEngine
from repro.core.flusher import RING_CHUNKS
from repro.core.lifecycle import CkptState
from repro.core.streaming import ChunkPipeline, chunk_sizes_for, plan_chunks
from repro.core.validator import validate_engine
from repro.errors import TierOfflineError
from repro.simgpu.stream import Stream
from repro.telemetry.bus import TraceBus
from repro.tiers.base import TierLevel
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import GiB, MiB
from repro.workloads.patterns import RestoreOrder, restore_order
from tests.conftest import TEST_SCALE, both_chunk_plans, make_buffer, start_runners, tiny_config
from tests.test_hop import recorded_pipelines

CKPT = 128 * MiB

STREAMING = StreamConfig(enabled=True)


# -- chunk planning ----------------------------------------------------------
class TestChunkPlanning:
    def test_plan_splits_near_equal(self):
        sizes = plan_chunks(100, 30)
        assert sizes == [25, 25, 25, 25]
        assert sum(sizes) == 100

    def test_small_transfers_plan_one_chunk(self):
        assert plan_chunks(10, 30) == [10]  # under two chunks: whole object
        assert plan_chunks(30, 30) == [30]
        assert plan_chunks(60, 30) == [30, 30]

    def test_chunk_sizes_for_exact_count(self):
        sizes = chunk_sizes_for(10, 3)
        assert sizes == [4, 3, 3]
        assert sum(sizes) == 10

    def test_stage_counts_align_across_sizes(self):
        # Reduced stages move fewer bytes but the same number of chunks.
        wire = plan_chunks(128 * MiB, 16 * MiB)
        reduced = chunk_sizes_for(37 * MiB + 11, len(wire))
        assert len(reduced) == len(wire)
        assert sum(reduced) == 37 * MiB + 11


# -- the pipeline fabric -----------------------------------------------------
class TestChunkPipeline:
    RING = 2  # what the one throttling stage passes to throttle()

    def _pipeline(self, chunks=4):
        pipe = ChunkPipeline(0, chunks, VirtualClock())
        pipe.add_stage("a")
        pipe.add_stage("b")
        return pipe

    def test_consumer_waits_for_publish(self):
        pipe = self._pipeline()
        got = []

        def consumer():
            for i in range(pipe.chunks):
                got.append(pipe.await_upstream("b", i))

        (t,) = start_runners(pipe.clock, (consumer,))
        for i in range(pipe.chunks):
            pipe.publish("a", i)
        pipe.clock.join(t)
        assert got == [True] * pipe.chunks

    def _cascade(self, chunks=6):
        """The flush cascade's stage graph; its one ring is f2r → f2p."""
        pipe = ChunkPipeline(0, chunks, VirtualClock())
        for stage in ("d2h", "h2f", "f2r", "f2p"):
            pipe.add_stage(stage)
        return pipe

    def test_ring_backpressure_parks_producer(self):
        # The SSD read-back's output lives in a bounded bounce buffer, so
        # f2r is the one producer that parks on its consumer.
        pipe = self._cascade(chunks=6)
        pipe.finish("d2h")
        pipe.finish("h2f")
        progressed = pipe.clock.event()
        parked = pipe.clock.event()

        def read_back():
            for i in range(pipe.chunks):
                assert pipe.await_upstream("f2r", i)
                if i == self.RING:
                    parked.set()
                assert pipe.throttle("f2r", i, self.RING)
                pipe.publish("f2r", i)
            progressed.set()

        (t,) = start_runners(pipe.clock, (read_back,))
        assert parked.wait(timeout=10.0)
        # ring chunks ahead of a PFS writer that has done nothing: parked.
        assert not progressed.wait(timeout=0.2)
        for i in range(pipe.chunks):
            pipe.publish("f2p", i)
        assert progressed.wait(timeout=10.0)
        pipe.clock.join(t)
        assert pipe.stall_s["f2r"] > 0.0
        assert pipe.stall_s["d2h"] == pipe.stall_s["h2f"] == 0.0

    def test_unthrottled_stage_runs_ahead_of_idle_consumer(self):
        # A stage whose output lives in the tier it writes never calls
        # throttle: it publishes every chunk with its consumer still at 0.
        pipe = self._cascade(chunks=6)
        for i in range(pipe.chunks):
            assert pipe.await_upstream("d2h", i)
            pipe.publish("d2h", i)
        pipe.finish("d2h")
        assert pipe.stall_s["d2h"] == 0.0
        # The late consumer finds all of them waiting and stalls on none.
        assert all(pipe.await_upstream("h2f", i) for i in range(pipe.chunks))
        assert pipe.stall_s["h2f"] == 0.0

    def test_upstream_failure_unblocks_consumer(self):
        pipe = self._pipeline()
        pipe.publish("a", 0)
        assert pipe.await_upstream("b", 0)
        result = []
        (t,) = start_runners(pipe.clock, (lambda: result.append(pipe.await_upstream("b", 1)),))
        pipe.fail("a")
        pipe.clock.join(t)
        assert result == [False]

    def test_downstream_failure_releases_producer(self):
        pipe = self._pipeline(chunks=6)
        pipe.fail("b")
        # The producer keeps charging its own link to completion.
        assert all(pipe.throttle("a", i, self.RING) for i in range(pipe.chunks))

    def test_skip_counts_as_complete(self):
        pipe = self._pipeline()
        pipe.skip("b")
        assert pipe.skipped("b")
        assert all(pipe.throttle("a", i, self.RING) for i in range(pipe.chunks))
        assert pipe.await_finished("a", "b")

    def test_finish_beats_late_failure_signal(self):
        pipe = self._pipeline()
        pipe.finish("a")
        pipe.fail("a")  # stream-level error after the commit: kept
        assert pipe.finished("a") and not pipe.failed("a")
        assert pipe.await_upstream("b", pipe.chunks - 1)

    def test_release_refcount(self):
        pipe = self._pipeline()
        pipe.retain(2)
        assert not pipe.release()
        assert pipe.release()  # last worker out owns the metrics roll-up

    def test_chunk_step_slices_many_chunk_plans_only(self):
        """The one chunk step: charge, publish, and — on a many-chunk plan
        only — occupancy plus a ``<stage>-chunk`` slice whose args keep the
        order the exporters round-trip (ckpt, chunk, bytes, then causal)."""

        causal = ("c0:1", "transfer", {"tier": "ssd"})
        for chunks in (1, 3):
            pipe = self._pipeline(chunks=chunks)
            bus = TraceBus(pipe.clock)
            mid_chunk = [  # the charge's result comes back: stages mid-chunk
                pipe.charge_chunk("a", i, 10 + i, lambda: pipe._active, bus, "trk", causal)
                for i in range(chunks)
            ]
            assert pipe.await_upstream("b", chunks - 1)  # every chunk published
            slices = [
                (e.name, e.track, e.phase, list(e.args.items()), e.op_id, e.category)
                for e in bus.snapshot()
            ]
            if chunks == 1:
                assert mid_chunk == [0] and slices == []
            else:
                assert mid_chunk == [1] * chunks
                assert slices == [
                    (
                        "a-chunk",
                        "trk",
                        "X",
                        [("ckpt", 0), ("chunk", i), ("bytes", 10 + i), ("tier", "ssd")],
                        "c0:1",
                        "transfer",
                    )
                    for i in range(chunks)
                ]

    def test_chunk_step_publishes_nothing_when_the_charge_raises(self):
        pipe = self._pipeline(chunks=3)

        def charge():
            raise RuntimeError("link fault")

        with pytest.raises(RuntimeError):
            pipe.charge_chunk("a", 0, 10, charge, None, "trk", (None, None, {}))
        assert pipe._active == 0  # exit_chunk ran
        pipe.fail("a")
        assert not pipe.await_upstream("b", 0)

    def test_overlap_integrator(self):
        pipe = self._pipeline()
        pipe.enter_chunk()
        pipe.enter_chunk()
        pipe.exit_chunk()
        pipe.exit_chunk()
        assert pipe.active_s >= pipe.overlap_s >= 0.0


# -- event-driven completion handoff ----------------------------------------
class TestEventCallbacks:
    def test_callback_fires_on_completion(self):
        stream = Stream("cb-test", VirtualClock())
        try:
            gate = threading.Event()
            fired = threading.Event()
            event = stream.submit(gate.wait)
            event.add_done_callback(lambda ev: fired.set())
            assert not fired.is_set()
            gate.set()
            assert fired.wait(timeout=10.0)
        finally:
            stream.close()

    def test_callback_fires_immediately_when_done(self):
        stream = Stream("cb-test", VirtualClock())
        try:
            event = stream.submit(lambda: None)
            event.wait(timeout=10.0)
            seen = []
            event.add_done_callback(seen.append)
            assert seen == [event]
        finally:
            stream.close()

    def test_callback_receives_failed_event(self):
        stream = Stream("cb-test", VirtualClock())
        try:
            errors = []
            event = stream.submit(lambda: 1 / 0)
            event.add_done_callback(lambda ev: errors.append(ev.error))
            with pytest.raises(ZeroDivisionError):
                event.wait(timeout=10.0)
            assert len(errors) == 1 and isinstance(errors[0], ZeroDivisionError)
        finally:
            stream.close()


# -- disabled == bit-identical ----------------------------------------------
def _equivalence_scenario(stream_cfg):
    """The test_faults_equivalence scenario, parameterized on StreamConfig."""
    import json  # noqa: F401 - kept for symmetry with the faults twin

    cfg = tiny_config(telemetry=True)
    if stream_cfg is not None:
        cfg = cfg.with_(stream=stream_cfg)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            assert not engine.streaming
            sums = {}
            for v in range(10):
                buf = make_buffer(ctx, CKPT, seed=v)
                sums[v] = buf.checksum()
                engine.checkpoint(v, buf)
                engine.wait_for_flushes(timeout=600.0)
            restored = {}
            out = ctx.device.alloc_buffer(CKPT)
            for v in restore_order(RestoreOrder.IRREGULAR, 10, seed=3):
                engine.restore(v, out)
                restored[v] = out.checksum()
            assert restored == sums
            decisions = [
                {"name": ev.name, "args": ev.args}
                for ev in cluster.telemetry.bus.snapshot()
                if ev.name == "evict-window"
            ]
            layouts = {
                cache.name: [
                    (f.offset, f.size, None if f.is_gap else f.record.ckpt_id)
                    for f in cache.table.fragments()
                ]
                for cache in (engine.gpu_cache, engine.host_cache)
            }
            registry = cluster.telemetry.registry
            tier_bytes = {
                name: registry.counter(name).value
                for name in (
                    "flush.d2h.bytes",
                    "flush.h2f.bytes",
                    "flush.f2p.bytes",
                    "tier.ssd.write_bytes",
                    "tier.pfs.write_bytes",
                    "flush.stream.pipelines",
                )
            }
            metric_names = sorted(registry.snapshot().keys())
            return decisions, layouts, tier_bytes, metric_names, restored


def test_disabled_streaming_is_bit_identical():
    import json

    default = _equivalence_scenario(None)
    # Every other knob non-default; enabled=False must make them all inert.
    off = _equivalence_scenario(
        StreamConfig(enabled=False, stream_chunk_bytes=4 * MiB)
    )
    for got, want in zip(off, default):
        assert json.dumps(got, sort_keys=True, default=str) == json.dumps(
            want, sort_keys=True, default=str
        )
    # One-chunk pipelines never count as streamed.
    assert default[2]["flush.stream.pipelines"] == 0


# -- streaming on: end-to-end correctness ------------------------------------
class TestStreamedCascade:
    def test_streamed_flush_restores_identical_bytes(self):
        cfg = tiny_config(telemetry=True, stream=STREAMING)
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                assert engine.streaming
                sums = {}
                for v in range(8):
                    buf = make_buffer(ctx, CKPT, seed=v)
                    sums[v] = buf.checksum()
                    engine.checkpoint(v, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                for v in range(8):
                    assert engine.catalog.get(v).durable_level is TierLevel.PFS
                out = ctx.device.alloc_buffer(CKPT)
                for v in restore_order(RestoreOrder.IRREGULAR, 8, seed=3):
                    engine.restore(v, out)
                    assert out.checksum() == sums[v]
                reg = cluster.telemetry.registry
                assert reg.counter("flush.stream.pipelines").value == 8
                # Gauges exist and carry sane values (overlap itself is
                # wall-clock dependent, so only bounds are asserted).
                assert 0.0 <= reg.gauge("flush.stream.overlap_ratio").value <= 1.0
                for stage in ("d2h", "h2f", "f2p"):
                    assert reg.gauge(f"flush.{stage}.stall_time").value >= 0.0
                validate_engine(engine)

    def test_small_checkpoints_plan_one_chunk(self):
        # Under two chunks an object plans one chunk even with streaming
        # on, and one-chunk pipelines bump no flush.stream.* metric.
        cfg = tiny_config(
            telemetry=True,
            stream=StreamConfig(enabled=True, stream_chunk_bytes=256 * MiB),
        )
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                buf = make_buffer(ctx, CKPT, seed=0)
                expected = buf.checksum()
                engine.checkpoint(0, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                assert engine.catalog.get(0).durable_level is TierLevel.PFS
                reg = cluster.telemetry.registry
                assert reg.counter("flush.stream.pipelines").value == 0
                assert reg.gauge("flush.stream.overlap_ratio").value == 0
                for stage in ("d2h", "h2f", "f2r", "f2p"):
                    assert reg.gauge(f"flush.{stage}.stall_time").value == 0
                assert not [
                    ev for ev in cluster.telemetry.bus.snapshot()
                    if ev.name.endswith("-chunk")
                ]
                out = ctx.device.alloc_buffer(CKPT)
                engine.restore(0, out)
                assert out.checksum() == expected

    def test_gpudirect_streams_through_the_same_cascade(self):
        """GPUDirect is a stage-graph variant (d2s → f2r → f2p), so it
        streams like the host cascade: chunked, PFS-durable, bit-identical."""
        cfg = tiny_config(telemetry=True, stream=STREAMING)
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True, gpudirect=True) as engine:
                sums = {}
                for v in range(4):
                    buf = make_buffer(ctx, CKPT, seed=v)
                    sums[v] = buf.checksum()
                    engine.checkpoint(v, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                for v in range(4):
                    assert engine.catalog.get(v).durable_level is TierLevel.PFS
                reg = cluster.telemetry.registry
                assert reg.counter("flush.stream.pipelines").value == 4
                assert reg.counter("flush.d2s.bytes").value == 4 * CKPT
                assert reg.counter("flush.f2p.bytes").value == 4 * CKPT
                # No host staging: the d2h/h2f stages never ran.
                assert reg.counter("flush.d2h.bytes").value == 0
                assert reg.counter("flush.h2f.bytes").value == 0
                chunks = CKPT // STREAMING.stream_chunk_bytes
                slices = [
                    ev for ev in cluster.telemetry.bus.snapshot()
                    if ev.name == "d2s-chunk"
                ]
                assert len(slices) == 4 * chunks
                out = ctx.device.alloc_buffer(CKPT)
                for v in restore_order(RestoreOrder.IRREGULAR, 4, seed=3):
                    engine.restore(v, out)
                    assert out.checksum() == sums[v]
                validate_engine(engine)

    def test_streaming_with_reduction(self):
        """Chunk recipes reconstruct and CRCs verify under streaming."""
        cfg = tiny_config(
            telemetry=True,
            stream=STREAMING,
            reduce=ReduceConfig(enabled=True),
        )
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                sums = {}
                base = make_buffer(ctx, CKPT, seed=0)
                for v in range(6):
                    buf = ctx.device.alloc_buffer(CKPT)
                    # High similarity: dedup/delta engage, physical < wire.
                    buf.payload[:] = base.payload
                    rng = make_rng(v, "stream-reduce")
                    idx = rng.integers(
                        0, buf.payload.size, size=buf.payload.size // 50
                    )
                    buf.payload[idx] ^= v + 1
                    sums[v] = buf.checksum()
                    engine.checkpoint(v, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                pid = engine.process_id
                for v in range(6):
                    key = (pid, v)
                    if engine.ssd.contains(key):
                        assert engine.ssd.verify(key)
                out = ctx.device.alloc_buffer(CKPT)
                for v in range(6):
                    engine.restore(v, out)
                    assert out.checksum() == sums[v]
                validate_engine(engine)


# -- stages buffer in the tier they write ------------------------------------
def _blocked_checkpointing(stream_cfg, count):
    """``(blocked, pfs_paced)``: Σ nominal seconds ``checkpoint()`` blocked
    over ``count`` objects — a GPU cache of two, a host cache holding all of
    them, and a PFS a tenth of its speed — beside what that sum would be
    were every write past the GPU cache's two paced by the PFS.  PCIe is cut
    tenfold too and the clock slowed, so the d2h pace the one-chunk plan
    blocks at (50 ms an object; the PFS takes 12.5× that) stands well clear
    of thread wake-up jitter."""
    hardware = HardwareSpec(d2h_bandwidth=2.5 * GiB, pfs_write_bandwidth=0.2 * GiB)
    cfg = tiny_config(
        scale=replace(TEST_SCALE, time_scale=0.1),
        cache=CacheConfig(gpu_cache_size=2 * CKPT, host_cache_size=count * CKPT),
        hardware=hardware,
        stream=stream_cfg,
    )
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            blocked = sum(
                engine.checkpoint(v, make_buffer(ctx, CKPT, seed=v))
                for v in range(count)
            )
            assert engine.wait_for_flushes(timeout=600.0)
            return blocked, (count - 2) * CKPT / hardware.pfs_write_bandwidth


class TestUncoupledCascade:
    """``checkpoint()`` blocks on the fastest cache, not on the PFS: a stage
    whose destination tier holds the whole object never parks on its
    consumer, whatever the chunk plan."""

    def test_d2h_never_stalls(self):
        # d2h has no upstream stage, so a ring on its edge was its only
        # possible stall.
        cfg = tiny_config(stream=STREAMING)
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                for v in range(8):
                    engine.checkpoint(v, make_buffer(ctx, CKPT, seed=v))
                assert engine.wait_for_flushes(timeout=600.0)
                reg = cluster.telemetry.registry
                assert reg.counter("flush.stream.pipelines").value == 8
                assert reg.gauge("flush.d2h.stall_time").value == 0

    def test_checkpoint_blocking_is_not_pfs_paced(self):
        # Against the closed form (2.5 s here; d2h-paced is ≈ 0.2 s), not
        # against each other: two wall-scaled measurements do not order.
        one_chunk, pfs_paced = _blocked_checkpointing(StreamConfig(), 6)
        streamed, _ = _blocked_checkpointing(STREAMING, 6)
        assert one_chunk <= 0.5 * pfs_paced
        assert streamed <= 0.5 * pfs_paced

    def test_consume_before_held_durable_hop(self):
        """d2h runs to its epilogue with h2f not started; a consume in that
        gap discards the checkpoint, and h2f then abandons exactly once."""
        cfg = tiny_config(stream=STREAMING)
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, discard_consumed=True) as engine:
                release = threading.Event()
                engine.flusher.h2f_stream.submit(lambda: release.wait(10), label="hold")
                try:
                    buf = make_buffer(ctx, CKPT, seed=0)
                    engine.checkpoint(0, buf)
                    assert engine.flusher.d2h_stream.synchronize(timeout=10.0)
                    record = engine.catalog.get(0)
                    host = record.peek(TierLevel.HOST)
                    assert host.state is CkptState.WRITE_COMPLETE and host.flush_pending
                    out = ctx.device.alloc_buffer(CKPT)
                    engine.restore(0, out)
                    assert out.checksum() == buf.checksum()
                finally:
                    release.set()
                assert engine.wait_for_flushes(timeout=600.0)
                reg = cluster.telemetry.registry
                assert reg.counter("flush.abandoned").value == 1
                assert reg.counter("flush.h2f.bytes").value == 0
                host = record.peek(TierLevel.HOST)
                assert host.evictable and not host.flush_pending
                validate_engine(engine)

    @both_chunk_plans
    def test_read_backs_count_ssd_read_ops(self, stream):
        cfg = tiny_config(stream=stream)
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                for v in range(4):
                    engine.checkpoint(v, make_buffer(ctx, CKPT, seed=v))
                assert engine.wait_for_flushes(timeout=600.0)
                reg = cluster.telemetry.registry
                assert reg.counter("tier.pfs.write_ops").value == 4
                assert reg.counter("tier.ssd.read_ops").value == 4
                assert reg.counter("tier.ssd.read_bytes").value == 4 * CKPT


# -- queue depth two -----------------------------------------------------------
@contextmanager
def _flushed_alone(monkeypatch, stream_cfg, to_pfs):
    """One checkpoint flushed on idle links: ``(cluster, engine, pipeline)``."""
    with Cluster(tiny_config(stream=stream_cfg)) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=to_pfs) as engine:
            with recorded_pipelines(monkeypatch) as built:
                engine.checkpoint(0, make_buffer(ctx, CKPT, seed=5))
                assert engine.wait_for_flushes(timeout=600.0)
            (pipeline,) = built
            yield cluster, engine, pipeline


class TestQueueDepthTwo:
    """Each stage keeps the chunk crossing its link plus the next one queued:
    a busy stage pays its command latency for its first chunk only."""

    @pytest.mark.parametrize("to_pfs", [False, True], ids=["ssd", "pfs"])
    def test_a_busy_stage_hides_every_latency_but_its_first(self, monkeypatch, to_pfs):
        """Eight chunks: ``d2h``, ``h2f`` and ``f2p`` each hide seven
        latencies.  The read-back hides two: from its fourth chunk on it
        waits for room in the ring, which the slower PFS writer frees only
        after the read link ran dry."""
        with _flushed_alone(monkeypatch, STREAMING, to_pfs) as (cluster, engine, pipeline):
            assert pipeline.chunks == 8
            ssd = engine.ssd
            expected = {
                engine.device.d2h_link: 7 * engine.device.d2h_link.latency,
                ssd.write_link: 7 * ssd.write_link.latency,
            }
            if to_pfs:
                share = cluster.pfs.node_links(engine.node_id)[0]
                expected[ssd.read_link] = (RING_CHUNKS - 1) * ssd.read_link.latency
                expected[share] = 7 * share.latency
            hidden = {
                link: link.latency_hidden_s
                for link in cluster.granted_links()
                if link.latency_hidden_s
            }
            assert hidden == pytest.approx(expected, rel=1e-9)
            total = sum(expected.values())
            snap = cluster.telemetry.registry.snapshot()
            assert snap["link.latency_hidden_s"] == pytest.approx(total, rel=1e-9)
            assert engine.stats()["latency_hidden_s"] == pytest.approx(total, rel=1e-9)

    def test_a_one_chunk_flush_hides_none(self, monkeypatch):
        with _flushed_alone(monkeypatch, StreamConfig(), True) as (cluster, engine, pipeline):
            assert pipeline.chunks == 1
            assert all(link.latency_hidden_s == 0.0 for link in cluster.granted_links())
            assert engine.stats()["latency_hidden_s"] == 0.0

    def test_the_cascade_costs_the_pfs_writes_plus_one_chunk_of_each_stage_ahead(
        self, monkeypatch
    ):
        """``d2h → h2f → f2r → f2p`` on idle links: the critical path is
        f2p's eight chunk spans, every stage's latency once, and one chunk
        span of each stage ahead of f2p."""
        with _flushed_alone(monkeypatch, STREAMING, True) as (cluster, engine, pipeline):
            chunk = CKPT // pipeline.chunks
            ahead = (engine.device.d2h_link, engine.ssd.write_link, engine.ssd.read_link)
            share = cluster.pfs.node_links(engine.node_id)[0]
            expected = (
                sum(link.latency + chunk / link.bandwidth for link in ahead)
                + share.latency + CKPT / share.bandwidth
            )
            assert pipeline.critical_s() == pytest.approx(expected, rel=1e-9)


# -- streaming + faults ------------------------------------------------------
class TestStreamedFaults:
    def test_reroute_mid_stream_resumes_at_right_chunk(self):
        """An SSD that dies after consuming some chunks reroutes to the
        PFS, replaying the consumed chunks, and lands verified bytes."""
        cfg = tiny_config(telemetry=True, stream=STREAMING)
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                real_open_put = engine.ssd.open_put
                die_after = 2  # chunks the SSD consumes before going dark

                def flaky_open_put(key, nominal_size, payload_size, **kw):
                    handle = real_open_put(key, nominal_size, payload_size, **kw)
                    real_write = handle.write
                    calls = {"n": 0}

                    def flaky_write(nbytes, **wkw):
                        if calls["n"] >= die_after:
                            raise TierOfflineError("ssd died mid-stream")
                        calls["n"] += 1
                        return real_write(nbytes, **wkw)

                    handle.write = flaky_write
                    return handle

                engine.ssd.open_put = flaky_open_put
                try:
                    buf = make_buffer(ctx, CKPT, seed=0)
                    expected = buf.checksum()
                    engine.checkpoint(0, buf)
                    assert engine.wait_for_flushes(timeout=600.0)
                finally:
                    engine.ssd.open_put = real_open_put
                record = engine.catalog.get(0)
                assert record.durable_level is TierLevel.PFS
                assert engine.flusher.rerouted >= 1
                assert not engine.ssd.contains((engine.process_id, 0))
                # The reroute replayed the already-consumed chunks: the PFS
                # moved the full wire size, not just the tail.
                wire = record.physical_size
                reg = cluster.telemetry.registry
                assert reg.counter("tier.pfs.write_bytes").value >= wire
                out = ctx.device.alloc_buffer(CKPT)
                engine.restore(0, out)
                assert out.checksum() == expected
                validate_engine(engine)

    def test_mid_stream_outage_window(self):
        """A time-indexed SSD outage opening mid-run still yields full
        durability (reroute at whatever chunk boundary the gate trips)."""
        cfg = tiny_config(
            stream=STREAMING,
            faults=FaultConfig(tier_outages=(("ssd", 0.0, 1e9, 0.0),)),
        )
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                sums = {}
                for v in range(3):
                    buf = make_buffer(ctx, CKPT, seed=v)
                    sums[v] = buf.checksum()
                    engine.checkpoint(v, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                out = ctx.device.alloc_buffer(CKPT)
                for v in range(3):
                    record = engine.catalog.get(v)
                    assert record.durable_level is TierLevel.PFS
                    engine.restore(v, out)
                    assert out.checksum() == sums[v]
                validate_engine(engine)


# -- drain sweep -------------------------------------------------------------
def test_drain_waits_for_cascading_resubmission():
    """drain() must not return while a later stage still holds queued work
    that an earlier sweep pass missed (the old two-pass sweep bug)."""
    cfg = tiny_config(stream=STREAMING)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            for v in range(6):
                engine.checkpoint(v, make_buffer(ctx, CKPT, seed=v))
            assert engine.wait_for_flushes(timeout=600.0)
            # After a successful drain every stream really is idle and
            # every checkpoint reached the final tier.
            for stream in (
                engine.flusher.d2h_stream,
                engine.flusher.h2f_stream,
                engine.flusher.f2p_stream,
            ):
                assert stream is None or stream.depth == 0
            for v in range(6):
                assert engine.catalog.get(v).durable_level is TierLevel.PFS


# -- property: many-chunk == one-chunk payloads ------------------------------
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    sizes=st.lists(
        st.sampled_from([32 * MiB, 48 * MiB, 128 * MiB, 160 * MiB]),
        min_size=2,
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_one_chunk_and_many_chunk_checksums_identical(sizes, seed):
    def run(stream_cfg):
        cfg = tiny_config()
        if stream_cfg is not None:
            cfg = cfg.with_(stream=stream_cfg)
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                sums = {}
                for v, size in enumerate(sizes):
                    buf = ctx.device.alloc_buffer(size)
                    buf.fill_random(make_rng(seed + v, "stream-prop"))
                    sums[v] = buf.checksum()
                    engine.checkpoint(v, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                restored = {}
                for v, size in enumerate(sizes):
                    out = ctx.device.alloc_buffer(size)
                    engine.restore(v, out)
                    restored[v] = out.checksum()
                assert restored == sums
                return sums

    assert run(STREAMING) == run(None)
