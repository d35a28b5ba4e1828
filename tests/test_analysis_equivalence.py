"""``AnalysisConfig.enabled=False`` changes nothing — the same discipline
as ``SchedConfig`` / ``ReduceConfig`` / ``FaultConfig``.

The causal plumbing (op handles on checkpoint records, ``op=`` parameters
through the scheduler and flush FSM, the ``tier=`` span args, the SLO
monitor) must be invisible when the switch is off: the tracer hands out
``NULL_OP``, no fill/stage events are emitted, no event carries an
``op_id``/``parent_id``/``category``, and the runtime's decisions are
bit-identical to the pre-causal build.  Same scenario discipline as
``test_faults_equivalence``: serialized cascade, deterministic restore
order, timestamps excluded (wall jitter feeds the virtual clock).
"""

import json

from repro.config import AnalysisConfig, SloConfig
from repro.core.engine import ScoreEngine
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import MiB
from repro.workloads.patterns import RestoreOrder, restore_order
from tests.conftest import tiny_config

CKPT = 128 * MiB
VERSIONS = 12


def _run_scenario(analysis_cfg):
    cfg = tiny_config(telemetry=True)
    if analysis_cfg is not None:
        cfg = cfg.with_(analysis=analysis_cfg)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            # The gates under test: tracer off, no live SLO monitor.
            assert not engine.ops.enabled
            assert engine.slo is None
            sums = {}
            for v in range(VERSIONS):
                buf = ctx.device.alloc_buffer(CKPT)
                buf.fill_random(make_rng(v, "analysis-equiv"))
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
            # Causal silence: not one event may carry an op id, a parent
            # link, or an attribution category.
            assert all(
                e.op_id is None and e.parent_id is None and e.category is None
                for e in events
            )
            # Nor may the causal layer's own span names appear.
            names = {e.name for e in events}
            assert not names & {"wait", "flush-queue", "durable", "slo-breach"}
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
            durable = {
                v: (
                    engine.catalog.get(v).durable_level.name
                    if engine.catalog.get(v).durable_level is not None
                    else None
                )
                for v in range(VERSIONS)
            }
            return decisions, layouts, tier_bytes, durable, restored


def test_disabled_analysis_is_bit_identical():
    default = _run_scenario(None)
    # Every non-default SLO knob set; enabled=False must make it all inert.
    off = _run_scenario(
        AnalysisConfig(
            enabled=False,
            slo=SloConfig(
                durability_target_s=0.01,
                restore_target_s=0.01,
                objective=0.5,
                window_s=1.0,
                burn_rate_threshold=0.1,
            ),
        )
    )
    for got, want in zip(off, default):
        assert json.dumps(got, sort_keys=True, default=str) == json.dumps(
            want, sort_keys=True, default=str
        )
    decisions, _, _, durable, _ = default
    assert len(decisions) > 0  # the scenario must actually exercise eviction
    assert any(level is not None for level in durable.values())
