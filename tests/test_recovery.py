"""Restart recovery: rebuilding state from the durable tiers.

The classic checkpoint-restart flow: a process dies after its checkpoints
reached the SSD; its replacement (same rank) recovers the catalog from the
store metadata and restores verified data.
"""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, FaultConfig, ResilienceConfig, StreamConfig
from repro.core.client import Client
from repro.core.engine import ScoreEngine
from repro.errors import IntegrityError
from repro.faults.health import BREAKER_RESET_S
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import MiB
from repro.workloads.service_load import run_service_load
from tests.conftest import FaultClock, make_buffer, tiny_config

CKPT = 128 * MiB


class TestEngineRecovery:
    def test_recover_after_engine_death(self, cluster, context):
        # First incarnation: checkpoint, flush, die.
        engine = ScoreEngine(context)
        sums = {}
        for v in range(6):
            buf = make_buffer(context, CKPT, seed=v)
            sums[v] = buf.checksum()
            engine.checkpoint(v, buf)
        engine.wait_for_flushes()
        engine.close()  # "failure"

        # Second incarnation on the same rank: recover and restore.
        engine2 = ScoreEngine(context)
        try:
            assert len(engine2.catalog) == 0
            recovered = engine2.recover_history()
            assert recovered == 6
            out = context.device.alloc_buffer(CKPT)
            for v in range(6):
                assert engine2.recover_size(v) == CKPT
                engine2.restore(v, out)
                assert out.checksum() == sums[v]
        finally:
            engine2.close()

    def test_recovery_is_idempotent(self, context):
        engine = ScoreEngine(context)
        engine.checkpoint(0, make_buffer(context, CKPT))
        engine.wait_for_flushes()
        engine.close()
        engine2 = ScoreEngine(context)
        try:
            assert engine2.recover_history() == 1
            assert engine2.recover_history() == 0  # already known
        finally:
            engine2.close()

    def test_recovery_scoped_to_process(self, cluster):
        cfg = tiny_config(processes_per_node=2)
        with Cluster(cfg) as c:
            ctxs = c.process_contexts()
            e0 = ScoreEngine(ctxs[0])
            e0.checkpoint(0, make_buffer(ctxs[0], CKPT))
            e0.wait_for_flushes()
            e0.close()
            # A different rank on the same node sees nothing to recover.
            e1 = ScoreEngine(ctxs[1])
            try:
                assert e1.recover_history() == 0
            finally:
                e1.close()

    def test_recovered_checksum_still_verified(self, context):
        engine = ScoreEngine(context)
        engine.checkpoint(0, make_buffer(context, CKPT, seed=1))
        engine.wait_for_flushes()
        engine.close()
        # Corrupt the durable payload; recovery metadata keeps the original
        # checksum, so the restore must fail loudly.
        payload, _ = context.ssd.get((context.process_id, 0))
        payload = payload.copy()  # get() returns a read-only view
        payload[0] ^= 0xFF
        meta = context.ssd.meta((context.process_id, 0))
        context.ssd.put((context.process_id, 0), payload, 128 * MiB, meta=meta)
        engine2 = ScoreEngine(context)
        try:
            engine2.recover_history()
            with pytest.raises(IntegrityError):
                engine2.restore(0, context.device.alloc_buffer(CKPT))
        finally:
            engine2.close()

    def test_recovery_from_file_backed_ssd_across_clusters(self, tmp_path):
        """A *full* restart: a brand-new cluster re-indexes the on-disk
        checkpoints via the metadata sidecar files."""
        cfg = tiny_config(ssd_directory=str(tmp_path))
        sums = {}
        with Cluster(cfg) as c1:
            ctx = c1.process_contexts()[0]
            with ScoreEngine(ctx) as engine:
                for v in range(4):
                    buf = make_buffer(ctx, CKPT, seed=v)
                    sums[v] = buf.checksum()
                    engine.checkpoint(v, buf)
                engine.wait_for_flushes()
        # New cluster = new process, new SsdStore over the same directory.
        with Cluster(cfg) as c2:
            ctx = c2.process_contexts()[0]
            with ScoreEngine(ctx) as engine:
                assert engine.recover_history() == 4
                out = ctx.device.alloc_buffer(CKPT)
                for v in range(4):
                    engine.restore(v, out)
                    assert out.checksum() == sums[v]


def _assert_carries_recovery_meta(engine, store, ckpt_ids):
    """Each checkpoint's blob on ``store`` carries what the restart scan
    reads back: ``recovery_meta(record)`` (the store may add its CRC)."""
    for ckpt_id in ckpt_ids:
        record = engine.catalog.get(ckpt_id)
        want = engine.recovery_meta(record)
        meta = store.meta(engine.store_key(record))
        assert meta is not None and meta.items() >= want.items(), (store.track, ckpt_id, meta)


def _flush_locally(stream):
    with Cluster(tiny_config(stream=StreamConfig(enabled=stream))) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            for v in range(2):
                engine.checkpoint(v, make_buffer(ctx, CKPT, seed=v))
            engine.wait_for_flushes(timeout=600.0)
            pipelines = cluster.telemetry.registry.snapshot()["flush.stream.pipelines"]
            assert (pipelines > 0) == stream
            for store in (engine.ssd, engine.pfs):
                _assert_carries_recovery_meta(engine, store, range(2))


def _aggregated_put_batch():
    cfg = tiny_config(
        num_nodes=1,
        processes_per_node=2,
        cluster=ClusterConfig(
            enabled=True, replica_factor=1, aggregation=True, aggregation_window_s=0.5
        ),
    )
    with ClusterTopology(cfg, engine_kwargs={"flush_to_pfs": True}) as topo:
        run_service_load(
            topo, clients=2, checkpoints_per_client=2, snapshot_bytes=CKPT, cross_node=False
        )
        assert topo.telemetry.registry.snapshot()["cluster.agg.coalesced_ops"] >= 1
        for i, engine in enumerate(topo.engines):
            _assert_carries_recovery_meta(engine, topo.cluster.pfs, (2 * i, 2 * i + 1))


def _replica_copy():
    cfg = tiny_config(num_nodes=2, cluster=ClusterConfig(enabled=True, replica_factor=2))
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx) as engine:
            for v in range(2):
                engine.checkpoint(v, make_buffer(ctx, CKPT, seed=v))
            engine.wait_for_flushes(timeout=600.0)
            assert engine.flusher.replicated == 2
            _assert_carries_recovery_meta(engine, cluster.nodes[1].ssd, range(2))


def _backfill_copy():
    cfg = tiny_config(
        faults=FaultConfig(tier_outages=(("ssd", 1000.0, 2000.0, 0.0),)),
        resilience=ResilienceConfig(enabled=True),
    )
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        fault_clock = cluster.faults.clock = FaultClock(1500.0)
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            engine.checkpoint(0, make_buffer(ctx, CKPT, seed=0))
            engine.wait_for_flushes(timeout=600.0)
            assert not engine.ssd.contains(engine.store_key(engine.catalog.get(0)))
            fault_clock.t = 3000.0
            engine.clock.sleep(BREAKER_RESET_S + 1.0)
            engine.wait_for_flushes(timeout=600.0)
            assert engine.flusher.backfilled == 1
            _assert_carries_recovery_meta(engine, engine.ssd, [0])


@pytest.mark.parametrize(
    "commit_path",
    [
        lambda: _flush_locally(stream=True),
        lambda: _flush_locally(stream=False),
        _aggregated_put_batch,
        _replica_copy,
        _backfill_copy,
    ],
    ids=[
        "streamed-durable-hop",
        "one-chunk-pfs-put",
        "aggregated-put-batch",
        "replica-copy",
        "backfill-copy",
    ],
)
def test_every_durable_commit_stores_the_recovery_meta(commit_path):
    """``recover_history()`` rebuilds a record from the metadata committed
    beside its blob and from nothing else, so every path that commits a
    durable blob must store it."""
    commit_path()


class TestClientRecovery:
    def test_client_recover_lists_versions(self, context):
        client = Client.create(context)
        buf = make_buffer(context, CKPT, seed=1)
        client.mem_protect(1, buf)
        for v in range(3):
            buf.fill_random(make_rng(v, "w"))
            client.checkpoint("w", v)
        client.wait_for_flushes()
        client.close()

        client2 = Client.create(context)
        try:
            versions = client2.recover()
            assert versions == [0, 1, 2]
            out = context.device.alloc_buffer(CKPT)
            client2.mem_protect(1, out)
            assert client2.recover_size(1, 1) == CKPT
            client2.restart(1)
        finally:
            client2.close()
