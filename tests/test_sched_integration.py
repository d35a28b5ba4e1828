"""Engine-level behaviour with QoS transfer scheduling enabled."""

import threading

import pytest

from repro.config import SchedConfig, StreamConfig
from repro.core.engine import ScoreEngine
from repro.errors import FlushTimeoutError
from repro.sched import render_sched_timeline, sched_events
from repro.tiers.topology import Cluster
from repro.util.units import MiB

from .conftest import both_chunk_plans, make_buffer, start_runners, tiny_config


def sched_cluster(stream=StreamConfig(), **sched_changes):
    changes = dict(enabled=True)
    changes.update(sched_changes)
    return Cluster(
        tiny_config(sched=SchedConfig(**changes), stream=stream, telemetry=True)
    )


def run_workload(engine, context, n=8, reverse_restore=True):
    """Checkpoint ``n`` buffers, hint, and restore them; verify integrity."""
    for i in range(n):
        engine.checkpoint(i, make_buffer(context, seed=i))
    order = list(reversed(range(n))) if reverse_restore else list(range(n))
    for i in order:
        engine.prefetch_enqueue(i)
    engine.prefetch_start()
    out = make_buffer(context, seed=999)
    for i in order:
        engine.restore(i, out)  # verify_restores=True checks the checksum


def test_roundtrip_with_scheduling_enabled():
    with sched_cluster() as cluster:
        context = cluster.process_contexts()[0]
        with ScoreEngine(context) as engine:
            run_workload(engine, context)
            engine.wait_for_flushes(timeout=600.0)
            assert engine.stats()["checkpoints"] == 8
        snapshots = cluster.sched.snapshot()
        assert snapshots, "links should have arbiters attached"
        assert sum(s["grants"] for s in snapshots) > 0


def test_demand_classes_served_and_traced():
    with sched_cluster() as cluster:
        context = cluster.process_contexts()[0]
        with ScoreEngine(context) as engine:
            run_workload(engine, context)
            engine.wait_for_flushes(timeout=600.0)
        registry = cluster.telemetry.registry
        assert registry.counter("sched.class.cascade_flush.served").value > 0
        events = sched_events(cluster.telemetry.bus.snapshot())
        assert events, "scheduler must trace queue events"
        text = render_sched_timeline(events)
        assert "transfer-scheduler timeline" in text
        assert "ssd-write" in text


# The GPU cache is the write path's backpressure under either chunk plan:
# with the cascade stalled, no extent is flushed and so none can be evicted.
@both_chunk_plans
def test_a_stalled_cascade_holds_checkpoint_in_its_gpu_reservation(stream):
    with sched_cluster(stream) as cluster:
        context = cluster.process_contexts()[0]
        with ScoreEngine(context) as engine:
            slots = engine.gpu_cache.table.capacity // (128 * MiB)
            release = cluster.clock.event()
            # Hold the flush stream so nothing reaches the host cache.
            engine.flusher.d2h_stream.submit(lambda: release.wait(5), label="hold")
            for i in range(slots):
                engine.checkpoint(i, make_buffer(context, seed=i))
            blocked = []
            done = cluster.clock.event()

            def blocked_checkpoint():
                blocked.append(engine.checkpoint(slots, make_buffer(context, seed=slots)))
                done.set()

            (t,) = start_runners(cluster.clock, (blocked_checkpoint,))
            assert not done.wait(0.2), "checkpoint should wait for a flushed extent"
            release.set()
            assert done.wait(10)
            cluster.clock.join(t)
            # Its blocking time is the reservation's wait, not a gate's.
            assert blocked[0] >= engine.gpu_cache.eviction_wait_time >= 0.2
            engine.wait_for_flushes(timeout=600.0)


def test_wait_for_flushes_timeout_diagnostics():
    with sched_cluster() as cluster:
        context = cluster.process_contexts()[0]
        with ScoreEngine(context, flush_to_pfs=True) as engine:
            release = threading.Event()
            engine.flusher.d2h_stream.submit(lambda: release.wait(10), label="hold")
            try:
                with pytest.raises(FlushTimeoutError) as excinfo:
                    engine.wait_for_flushes(timeout=0.5)
            finally:
                release.set()
            message = str(excinfo.value)
            assert "still pending" in message
            assert "d2h=" in message  # stream depths are in the diagnostics
            assert "h2f=" in message
            # The PFS leg's two streams: the SSD read-back and the PFS write.
            assert "f2r=" in message and "f2p=" in message
            with pytest.raises(ValueError):
                engine.wait_for_flushes(timeout=-1.0)
            # Once the stall clears, the same call drains normally.
            assert engine.wait_for_flushes(timeout=600.0) >= 0.0


def test_wait_for_flushes_timeout_without_scheduling():
    """The timeout satellite works with the scheduler disabled too."""
    with Cluster(tiny_config()) as cluster:
        context = cluster.process_contexts()[0]
        with ScoreEngine(context) as engine:
            release = threading.Event()
            engine.flusher.d2h_stream.submit(lambda: release.wait(10), label="hold")
            try:
                with pytest.raises(FlushTimeoutError):
                    engine.wait_for_flushes(timeout=0.5)
            finally:
                release.set()
            engine.wait_for_flushes()  # untimed wait still drains


def test_flush_to_pfs_roundtrip_under_scheduling():
    """Cascade flush f2p read-back shares the SSD read link with demand
    restores; the full cascade must still complete and verify."""
    with sched_cluster() as cluster:
        context = cluster.process_contexts()[0]
        with ScoreEngine(context, flush_to_pfs=True) as engine:
            run_workload(engine, context, n=6)
            engine.wait_for_flushes(timeout=600.0)
            assert cluster.pfs.object_count() > 0


def test_scheduling_off_is_the_default_and_attaches_nothing():
    with Cluster(tiny_config()) as cluster:
        assert not cluster.sched.enabled
        assert cluster.sched.snapshot() == []
        assert cluster.nodes[0].ssd.read_link.scheduler is None


def test_two_engines_share_links_with_scheduling():
    """Two co-located engines (one PCIe pair, one SSD) run concurrently
    under arbitration with correct restores on both."""
    with Cluster(
        tiny_config(
            processes_per_node=2, sched=SchedConfig(enabled=True), telemetry=True
        )
    ) as cluster:
        contexts = cluster.process_contexts()
        engines = [ScoreEngine(ctx) for ctx in contexts]
        try:
            errors = []

            def worker(engine, context):
                try:
                    run_workload(engine, context, n=6)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = start_runners(
                cluster.clock, *[(worker, engine, ctx) for engine, ctx in zip(engines, contexts)]
            )
            for t in threads:
                cluster.clock.join(t)
            assert not errors, errors
            for engine in engines:
                engine.wait_for_flushes(timeout=600.0)
        finally:
            for engine in engines:
                engine.close()
        assert sum(s["grants"] for s in cluster.sched.snapshot()) > 0
