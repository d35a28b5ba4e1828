"""A fault plan that injects nothing changes nothing, and nothing heals.

The fault-injection plumbing (the ``link.fault_injector`` hook, the tier
outage/corruption gates in the stores, the crash points) must be invisible
when the plan injects nothing: no injector attaches, and the self-healing
that is always armed (retries, reroutes, re-flushes, backfills, circuit
breakers) never has anything to do.  This test runs the same deterministic
scenario on two fresh clusters — the default config and a config with every
fault knob that injects nothing on its own set to a non-default value — and
asserts identical eviction decision streams, final cache layouts, tier byte
counters, store metadata and restored bytes, with every self-healing tally
at 0 in both.

(Checkpoints are serialized with ``wait_for_flushes`` between operations so
thread interleaving cannot perturb eviction order; event timestamps are
excluded, as wall-clock jitter feeds the virtual clock.)
"""

import json

from repro.config import FaultConfig
from repro.core.engine import ScoreEngine
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import MiB
from repro.workloads.patterns import RestoreOrder, restore_order
from tests.conftest import tiny_config

CKPT = 128 * MiB
VERSIONS = 14


def _run_scenario(faults_cfg):
    cfg = tiny_config(telemetry=True)
    if faults_cfg is not None:
        cfg = cfg.with_(faults=faults_cfg)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            # The gate under test: nothing attached.
            assert cluster.faults.plan is None
            sums = {}
            for v in range(VERSIONS):
                buf = ctx.device.alloc_buffer(CKPT)
                buf.fill_random(make_rng(v, "faults-equiv"))
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
            # Store metadata: the caller's fields and the pristine CRC stamp.
            metas = {
                str(key): engine.ssd.meta(key) or {}
                for key in sorted(engine.ssd.keys_for_process(engine.process_id))
            }
            durable = {
                v: (
                    engine.catalog.get(v).durable_level.name
                    if engine.catalog.get(v).durable_level is not None
                    else None
                )
                for v in range(VERSIONS)
            }
            # Armed, but with nothing to heal.
            tallies = engine.flusher.tallies()
            for name in ("retries", "rerouted", "reflushed", "backfilled"):
                assert tallies[name] == 0, name
            assert registry.counter("resilience.breaker_opens").value == 0
            assert all(breaker["opens"] == 0 for breaker in cluster.health.snapshot().values())
            return decisions, layouts, tier_bytes, metas, durable, restored


def test_a_plan_that_injects_nothing_is_bit_identical_and_heals_nothing():
    default = _run_scenario(None)
    # Every knob set that injects nothing on its own: all must be inert.
    off = _run_scenario(FaultConfig(seed=1234, crash_ckpt=0))
    for got, want in zip(off, default):
        assert json.dumps(got, sort_keys=True, default=str) == json.dumps(
            want, sort_keys=True, default=str
        )
    decisions, _, _, metas, durable, _ = default
    assert len(decisions) > 0  # the scenario must actually exercise eviction
    assert metas and all("stored_crc" in meta for meta in metas.values())
    assert any(level is not None for level in durable.values())
