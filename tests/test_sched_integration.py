"""Engine-level behaviour with QoS transfer scheduling enabled."""

import threading

import pytest

from repro.config import SchedConfig, StreamConfig
from repro.core.engine import ScoreEngine
from repro.errors import BackpressureError, FlushTimeoutError
from repro.sched import render_sched_timeline, sched_events
from repro.tiers.topology import Cluster

from .conftest import both_chunk_plans, make_buffer, tiny_config


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


# Explicit admission is the write path's backpressure under either chunk
# plan: the many-chunk d2h does not park on the stages below it.
@both_chunk_plans
def test_checkpoint_backpressure_blocks(stream):
    with sched_cluster(stream, max_flush_backlog=1, admission="block") as cluster:
        context = cluster.process_contexts()[0]
        with ScoreEngine(context) as engine:
            release = threading.Event()
            # Hold the flush stream so the backlog cannot drain by itself.
            engine.flusher.d2h_stream.submit(lambda: release.wait(5), label="hold")
            done = threading.Event()

            def blocked_checkpoint():
                engine.checkpoint(0, make_buffer(context, seed=0))
                done.set()

            t = threading.Thread(target=blocked_checkpoint)
            t.start()
            assert not done.wait(0.2), "checkpoint should be backpressured"
            release.set()
            assert done.wait(10)
            t.join(timeout=5)
            backpressure = cluster.telemetry.registry.histogram(
                "engine.checkpoint.backpressure_s"
            )
            assert backpressure.count >= 1
            engine.wait_for_flushes(timeout=600.0)


@both_chunk_plans
def test_checkpoint_backpressure_sheds(stream):
    with sched_cluster(stream, max_flush_backlog=1, admission="shed") as cluster:
        context = cluster.process_contexts()[0]
        with ScoreEngine(context) as engine:
            release = threading.Event()
            engine.flusher.d2h_stream.submit(lambda: release.wait(5), label="hold")
            try:
                with pytest.raises(BackpressureError):
                    engine.checkpoint(0, make_buffer(context, seed=0))
            finally:
                release.set()
            assert cluster.telemetry.registry.counter("engine.checkpoint.shed").value == 1
            # After the backlog drains, checkpointing works again.
            engine.flusher.d2h_stream.wait_depth_below(1, timeout=5)
            engine.checkpoint(1, make_buffer(context, seed=1))
            engine.wait_for_flushes(timeout=600.0)


def test_admission_off_never_intervenes():
    with sched_cluster(max_flush_backlog=1, admission="off") as cluster:
        context = cluster.process_contexts()[0]
        with ScoreEngine(context) as engine:
            release = threading.Event()
            engine.flusher.d2h_stream.submit(lambda: release.wait(5), label="hold")
            try:
                engine.checkpoint(0, make_buffer(context, seed=0))  # no shed/block
            finally:
                release.set()
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

            threads = [
                threading.Thread(target=worker, args=(engine, ctx))
                for engine, ctx in zip(engines, contexts)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, errors
            for engine in engines:
                engine.wait_for_flushes(timeout=600.0)
        finally:
            for engine in engines:
                engine.close()
        assert sum(s["grants"] for s in cluster.sched.snapshot()) > 0
