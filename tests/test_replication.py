"""Ring replication across nodes (VELOC resilience strategy): a two-node
cluster at ``replica_factor=2`` is the partner pair — one replica on the
ring successor."""

import pytest

from repro.config import ClusterConfig
from repro.core.engine import ScoreEngine
from repro.tiers.topology import Cluster
from repro.util.units import MiB
from tests.conftest import make_buffer, tiny_config

CKPT = 128 * MiB


@pytest.fixture
def two_node_cluster():
    cfg = tiny_config(
        num_nodes=2,
        processes_per_node=1,
        cluster=ClusterConfig(enabled=True, replica_factor=2),
    )
    with Cluster(cfg) as c:
        yield c


class TestReplication:
    def test_copies_land_on_partner_ssd(self, two_node_cluster):
        ctxs = two_node_cluster.process_contexts()
        engine = ScoreEngine(ctxs[0])
        try:
            for v in range(3):
                engine.checkpoint(v, make_buffer(ctxs[0], CKPT, seed=v))
            engine.wait_for_flushes()
            assert [t[0] for t in engine.replica_targets] == [1]
            replica_ssd = two_node_cluster.nodes[1].ssd
            for v in range(3):
                assert replica_ssd.contains((engine.process_id, v))
            assert engine.flusher.replicated == 3
        finally:
            engine.close()

    def test_survives_node_ssd_loss(self, two_node_cluster):
        """The headline scenario: the home node's SSD contents are lost; a
        replacement process recovers everything from the successor node."""
        ctxs = two_node_cluster.process_contexts()
        engine = ScoreEngine(ctxs[0])
        sums = {}
        for v in range(4):
            buf = make_buffer(ctxs[0], CKPT, seed=v)
            sums[v] = buf.checksum()
            engine.checkpoint(v, buf)
        engine.wait_for_flushes()
        engine.close()

        # Node 0's SSD dies: drop every object.
        home_ssd = two_node_cluster.nodes[0].ssd
        for v in range(4):
            home_ssd.delete((ctxs[0].process_id, v))

        replacement = ScoreEngine(ctxs[0])
        try:
            recovered = replacement.recover_history()
            assert recovered == 4  # found on the successor's SSD
            out = ctxs[0].device.alloc_buffer(CKPT)
            for v in range(4):
                replacement.restore(v, out)
                assert out.checksum() == sums[v]
        finally:
            replacement.close()

    def test_discarded_checkpoints_not_replicated(self, two_node_cluster):
        ctxs = two_node_cluster.process_contexts()
        engine = ScoreEngine(ctxs[0], discard_consumed=True)
        try:
            engine.checkpoint(0, make_buffer(ctxs[0], CKPT))
            out = ctxs[0].device.alloc_buffer(CKPT)
            engine.restore(0, out)  # consumed + discarded immediately
            engine.wait_for_flushes()
            # Either the h2f leg was cancelled entirely, or the replication
            # stage saw the discard and skipped; never a replica with
            # cancelled flushes pending.
            replica_ssd = two_node_cluster.nodes[1].ssd
            if replica_ssd.contains((engine.process_id, 0)):
                # the flush won the race — the copy must then be complete
                payload, _ = replica_ssd.get((engine.process_id, 0))
                assert payload.size > 0
        finally:
            engine.close()
