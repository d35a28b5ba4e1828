"""``ReduceConfig.enabled=False`` changes nothing — the PR-2/3 discipline.

The reduction plumbing (``physical_size`` call sites, the ``on_evict``
hook, the reducer gate in the engine) must be invisible when the switch is
off: ``physical_size`` stays ``nominal_size`` because no record ever gets a
reduction image, and ``on_evict`` is ``None``.  This test runs the same
deterministic scenario on two fresh clusters — the default config and an
explicit ``enabled=False`` config — and asserts identical eviction decision
streams, final cache layouts, tier byte counters and restored bytes.

(Checkpoints are serialized with ``wait_for_flushes`` between operations so
thread interleaving cannot perturb eviction order; event timestamps are
excluded, as wall-clock jitter feeds the virtual clock.)
"""

import json

from repro.config import ReduceConfig
from repro.core.engine import ScoreEngine
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import MiB
from repro.workloads.patterns import RestoreOrder, restore_order
from tests.conftest import tiny_config

CKPT = 128 * MiB
VERSIONS = 14


def _run_scenario(reduce_cfg):
    cfg = tiny_config(telemetry=True)
    if reduce_cfg is not None:
        cfg = cfg.with_(reduce=reduce_cfg)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            assert engine.reducer is None  # the gate under test
            sums = {}
            for v in range(VERSIONS):
                buf = ctx.device.alloc_buffer(CKPT)
                buf.fill_random(make_rng(v, "reduce-equiv"))
                sums[v] = buf.checksum()
                engine.checkpoint(v, buf)
                # Serialize the cascade: decisions become deterministic.
                engine.wait_for_flushes(timeout=600.0)
            restored = {}
            out = ctx.device.alloc_buffer(CKPT)
            for v in restore_order(RestoreOrder.IRREGULAR, VERSIONS, seed=3):
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
                )
            }
            sizes = {v: engine.catalog.get(v).physical_size for v in range(VERSIONS)}
            return decisions, layouts, tier_bytes, sizes, restored


def test_disabled_reduce_is_bit_identical():
    default = _run_scenario(None)
    off = _run_scenario(ReduceConfig(enabled=False))
    for got, want in zip(off, default):
        assert json.dumps(got, sort_keys=True, default=str) == json.dumps(
            want, sort_keys=True, default=str
        )
    decisions = default[0]
    assert len(decisions) > 0  # the scenario must actually exercise eviction


def test_disabled_records_report_nominal_sizes():
    from repro.core.catalog import CheckpointRecord

    record = CheckpointRecord(0, 128 * MiB, 128 * MiB, 0)
    assert record.reduction is None
    assert record.physical_size == record.nominal_size
