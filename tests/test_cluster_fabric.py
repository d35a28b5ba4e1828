"""Cluster fabric: replica directory, peer-SSD reads, PFS aggregation."""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig
from repro.core.engine import ScoreEngine
from repro.errors import TransientTransferError
from repro.util.rng import make_rng
from repro.util.units import MiB
from repro.workloads.service_load import run_service_load
from tests.conftest import TEST_SCALE, both_chunk_plans, tiny_config

CKPT = 64 * MiB


def cluster_config(num_nodes=2, processes_per_node=1, **cluster_kw):
    return tiny_config(
        num_nodes=num_nodes,
        processes_per_node=processes_per_node,
        cluster=ClusterConfig(enabled=True, **cluster_kw),
    )


def make_topology(config, **engine_kw):
    engine_kw.setdefault("flush_to_pfs", True)
    return ClusterTopology(config, engine_kwargs=engine_kw)


def submit_one(topo, ckpt_id=0, size=CKPT, client="c0"):
    session = topo.service.connect(client)
    buf = session.engine.device.alloc_buffer(size)
    buf.fill_random(make_rng(17 + ckpt_id, "fabric-test"))
    session.submit(ckpt_id, buf)
    for engine in topo.engines:
        engine.wait_for_flushes(timeout=600.0)
    return session, buf.checksum()


class TestReplicaDirectory:
    def test_flush_publishes_home_and_ring_successor(self):
        with make_topology(cluster_config(num_nodes=3)) as topo:
            session, _ = submit_one(topo)
            key = (session.engine.process_id, 0)
            assert topo.fabric.directory.holders(key) == [0, 1]

    def test_replica_factor_3_publishes_two_successors(self):
        with make_topology(cluster_config(num_nodes=4, replica_factor=3)) as topo:
            session, _ = submit_one(topo)
            key = (session.engine.process_id, 0)
            assert topo.fabric.directory.holders(key) == [0, 1, 2]

    def test_delete_withdraws_holder(self):
        with make_topology(cluster_config(num_nodes=2)) as topo:
            session, _ = submit_one(topo)
            key = (session.engine.process_id, 0)
            topo.cluster.nodes[1].ssd.delete(key)
            assert topo.fabric.directory.holders(key) == [0]
            topo.cluster.nodes[0].ssd.delete(key)
            assert topo.fabric.directory.holders(key) == []


class TestPeerReads:
    def test_cross_node_restore_reads_peer_ssd_not_pfs(self):
        cfg = cluster_config(num_nodes=3)
        with make_topology(cfg) as topo:
            session, want = submit_one(topo)
            target = topo.engines[2]  # node 2 holds no replica (factor 2)
            out = target.device.alloc_buffer(CKPT)
            session.restore(0, out, engine=target)
            assert out.checksum() == want
            snap = topo.telemetry.registry.snapshot()
            assert snap["cluster.peer.reads"] == 1
            assert snap["cluster.peer.read_bytes"] == CKPT
            assert snap["tier.pfs.read_ops"] == 0

    def test_peer_reads_disabled_drops_to_pfs(self):
        cfg = cluster_config(num_nodes=3, peer_reads=False)
        with make_topology(cfg) as topo:
            session, want = submit_one(topo)
            target = topo.engines[2]
            out = target.device.alloc_buffer(CKPT)
            session.restore(0, out, engine=target)
            assert out.checksum() == want
            snap = topo.telemetry.registry.snapshot()
            assert snap["cluster.peer.reads"] == 0
            assert snap["tier.pfs.read_ops"] == 1

    def test_peer_faster_than_pfs(self):
        """The point of the subsystem: SSD + fabric beats the PFS links."""
        latencies = {}
        for peer_reads in (True, False):
            cfg = cluster_config(num_nodes=3, peer_reads=peer_reads)
            with make_topology(cfg) as topo:
                session, _ = submit_one(topo)
                target = topo.engines[2]
                out = target.device.alloc_buffer(CKPT)
                latencies[peer_reads] = session.restore(0, out, engine=target)
        assert latencies[True] < latencies[False]

    def test_mid_read_peer_failure_falls_back_to_pfs(self):
        """A peer dying mid-transfer replays the stream off the PFS."""
        cfg = cluster_config(num_nodes=3)
        with make_topology(cfg) as topo:
            session, want = submit_one(topo)
            target = topo.engines[2]
            key = (session.engine.process_id, 0)
            peer = topo.fabric.peer_source(target.node_id, key)
            assert peer is not None
            handle = peer.open_get(key)

            def die(nbytes, cancelled=None, request=None, queued=0.0):
                raise TransientTransferError("peer died mid-read")

            handle._reader.read = die
            handle.read(handle.nominal_size)
            payload, _ = handle.finish()
            assert np.array_equal(payload, topo.cluster.pfs._read_payload(key))
            snap = topo.telemetry.registry.snapshot()
            assert snap["cluster.peer.fallbacks"] == 1
            assert snap["cluster.peer.reads"] == 0  # not a pure peer read
            assert snap["tier.pfs.read_ops"] == 1
            # The restore path end-to-end still verifies against the
            # original checksum even with the injected failure burnt.
            out = target.device.alloc_buffer(CKPT)
            session.restore(0, out, engine=target)
            assert out.checksum() == want

    def test_ssd_outage_darkens_peers_and_restores_from_pfs(self):
        """A tier-global SSD outage: peer_source yields nothing, the
        engine's fabric routing drops to the PFS, restores still verify."""
        cfg = tiny_config(
            num_nodes=3,
            cluster=ClusterConfig(enabled=True),
        )
        with make_topology(cfg) as topo:
            session, want = submit_one(topo)  # flush completes pre-outage
            topo.cluster.faults.hard_outage = lambda tier: tier == "ssd"
            target = topo.engines[2]
            key = (session.engine.process_id, 0)
            assert topo.fabric.peer_source(target.node_id, key) is None
            out = target.device.alloc_buffer(CKPT)
            session.restore(0, out, engine=target)
            assert out.checksum() == want
            snap = topo.telemetry.registry.snapshot()
            assert snap["cluster.peer.reads"] == 0
            assert snap["tier.pfs.read_ops"] >= 1


class TestAggregation:
    @both_chunk_plans
    def test_concurrent_flushes_coalesce_and_recover_from_the_stores(self, stream):
        """Whole-object (one-chunk) PFS commits ride the node's write
        aggregator into ``put_batch``; a streamed flush paces the PFS per
        chunk and commits per object.  Either way each blob lands under its
        own engine's key, and a fresh engine recovers exactly its own."""
        cfg = tiny_config(
            stream=stream,
            num_nodes=1,
            processes_per_node=2,
            cluster=ClusterConfig(
                enabled=True,
                replica_factor=1,
                aggregation=True,
                aggregation_window_s=0.5,
            ),
        )
        with make_topology(cfg) as topo:
            run_service_load(
                topo,
                clients=2,
                checkpoints_per_client=2,
                snapshot_bytes=CKPT,
                cross_node=False,
            )
            snap = topo.telemetry.registry.snapshot()
            if stream.enabled:
                assert snap.get("cluster.agg.coalesced_ops", 0) == 0
                assert snap["tier.pfs.write_ops"] == 4
            else:
                assert snap["cluster.agg.coalesced_ops"] >= 1
                # Batched commits save whole PFS ops: 4 objects, fewer ops.
                assert snap["tier.pfs.write_ops"] < 4
            assert topo.cluster.pfs.object_count() == 4
            # Checkpoint ids are globally unique: client i owns {2i, 2i+1}.
            for i, engine in enumerate(topo.engines):
                own = {2 * i, 2 * i + 1}
                pfs_keys = topo.cluster.pfs.keys_for_process(engine.process_id)
                assert {ckpt for _pid, ckpt in pfs_keys} == own
                engine.close()
                with ScoreEngine(engine.context, flush_to_pfs=True) as fresh:
                    assert fresh.recover_history() == 2
                    assert {r.ckpt_id for r in fresh.catalog.all_records()} == own

    def test_batched_blobs_are_byte_identical_to_direct_puts(self):
        checks = {}
        for aggregation in (True, False):
            cfg = tiny_config(
                num_nodes=1,
                processes_per_node=2,
                cluster=ClusterConfig(
                    enabled=True,
                    replica_factor=1,
                    aggregation=aggregation,
                    aggregation_window_s=0.5,
                ),
            )
            with make_topology(cfg) as topo:
                result = run_service_load(
                    topo,
                    clients=2,
                    checkpoints_per_client=2,
                    snapshot_bytes=CKPT,
                    cross_node=False,
                )
                assert result["checksums_ok"]
                pfs = topo.cluster.pfs
                checks[aggregation] = {
                    key: int(pfs._read_payload(key)[::4096].sum())
                    for i, engine in enumerate(topo.engines)
                    for key in [
                        (engine.process_id, 2 * i),
                        (engine.process_id, 2 * i + 1),
                    ]
                }
        assert checks[True] == checks[False]

    def test_a_lone_engine_per_node_commits_without_the_window(self):
        """With one engine per node no writer can join a batch: a commit is
        a direct put, and no leader waits out the window for nobody.  At
        ``time_scale`` 1.0 the simulator's own CPU time reads as itself,
        milliseconds against the half-second window."""
        cfg = cluster_config(
            num_nodes=1, replica_factor=1, aggregation=True, aggregation_window_s=0.5
        ).with_(scale=replace(TEST_SCALE, time_scale=1.0))
        with make_topology(cfg) as topo:
            clock, pfs = topo.cluster.clock, topo.cluster.pfs
            payload = np.zeros(1024, dtype=np.uint8)
            advance = {}
            for name, put in (
                ("direct", partial(pfs.put, node_id=0)),
                ("fabric", partial(topo.fabric.pfs_put, 0)),
            ):
                before = clock.now()
                put((0, name), payload, 1024)
                advance[name] = clock.now() - before
            assert advance["fabric"] == pytest.approx(advance["direct"], abs=0.1)
            assert pfs.contains((0, "fabric"))
            snap = topo.telemetry.registry.snapshot()
            assert snap.get("cluster.agg.batches", 0) == 0

    def test_aggregation_failure_raises_in_submitting_thread(self):
        cfg = tiny_config(
            num_nodes=1,
            processes_per_node=2,
            cluster=ClusterConfig(
                enabled=True,
                replica_factor=1,
                aggregation=True,
                aggregation_window_s=0.0,
            ),
        )
        with make_topology(cfg) as topo:
            fabric = topo.fabric

            def boom(*args, **kwargs):
                raise TransientTransferError("pfs gone")

            topo.cluster.pfs.put = boom
            with pytest.raises(TransientTransferError):
                fabric.pfs_put(0, (0, 99), np.zeros(1024, dtype=np.uint8), 1024)
