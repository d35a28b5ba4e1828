"""``ClusterConfig.enabled=False`` changes nothing — same discipline as
``SchedConfig`` / ``FaultConfig`` / ``ReduceConfig``.

The fabric plumbing (replica directory publication in the SSD store, the
fabric read-routing hook in ``durable_read_source``, the ``_pfs_put``
aggregation indirection in the flusher, the node/engine bindings on the
trace bus) must be invisible when the switch is off: no fabric object is
built, no directory attaches to the stores, replica targets stay empty,
and no event picks up a ``node_id``.  This runs the same deterministic
scenario on the default config and on a config with every *other* cluster
knob set to non-default values but ``enabled=False``, and asserts
identical eviction decisions, cache layouts, tier byte counters and
restored bytes.
"""

import json

from repro.config import ClusterConfig
from repro.core.engine import ScoreEngine
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import MiB
from repro.workloads.patterns import RestoreOrder, restore_order
from tests.conftest import tiny_config

CKPT = 128 * MiB
VERSIONS = 12


def _run_scenario(cluster_cfg):
    cfg = tiny_config(telemetry=True)
    if cluster_cfg is not None:
        cfg = cfg.with_(cluster=cluster_cfg)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            # The gates under test: nothing built, nothing attached.
            assert cluster.fabric is None
            assert engine.fabric is None
            assert engine.replica_targets == []
            assert engine.ssd._replica_dir is None
            sums = {}
            for v in range(VERSIONS):
                buf = ctx.device.alloc_buffer(CKPT)
                buf.fill_random(make_rng(v, "cluster-equiv"))
                sums[v] = buf.checksum()
                engine.checkpoint(v, buf)
                engine.wait_for_flushes(timeout=600.0)
            restored = {}
            out = ctx.device.alloc_buffer(CKPT)
            for v in restore_order(RestoreOrder.IRREGULAR, VERSIONS, seed=3):
                engine.restore(v, out)
                restored[v] = out.checksum()
            assert restored == sums
            events = cluster.telemetry.bus.snapshot()
            assert all(ev.node_id is None for ev in events)
            assert all(ev.engine_id is None for ev in events)
            decisions = [
                {"name": ev.name, "args": ev.args}
                for ev in events
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
                )
            }
            cluster_counters = {
                name: registry.counter(name).value
                for name in (
                    "cluster.peer.reads",
                    "cluster.peer.fallbacks",
                    "cluster.agg.batches",
                    "cluster.agg.coalesced_ops",
                )
            }
            assert all(v == 0 for v in cluster_counters.values())
            return decisions, layouts, tier_bytes, restored


def test_disabled_cluster_is_bit_identical():
    default = _run_scenario(None)
    # Every non-default knob set; enabled=False must make them all inert.
    off = _run_scenario(
        ClusterConfig(
            enabled=False,
            replica_factor=3,
            peer_reads=False,
            aggregation=False,
            aggregation_window_s=1.0,
            service_max_sessions=2,
            service_queue_depth=1,
            service_rpc_latency_s=0.1,
            repair=True,
            repair_max_inflight=1,
            failover=True,
        )
    )
    assert json.dumps(default, default=str) == json.dumps(off, default=str)
