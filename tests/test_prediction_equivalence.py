"""``PredictConfig.enabled=False`` changes nothing — same discipline as
``ClusterConfig`` / ``SchedConfig`` / ``FaultConfig`` / ``ReduceConfig``.

The prediction plumbing (the ``SyntheticRestoreQueue`` subclass, the
``queue.hint_index()`` indirection in the cache cost memo, the predict
hooks on checkpoint/restore/evict, the ``explicit`` task flag in the
prefetcher) must be invisible when the switch is off: no runtime object
is built, the plain ``RestoreQueue`` is used, no predict counter moves —
and the same deterministic scenario produces identical eviction
decisions, cache layouts, tier byte counters and restored bytes whether
the config is the default or has every *other* predict knob set to a
non-default value with ``enabled=False``.

The hypothesis property closes the loop from the other side: with
prediction *on* (learned mode, no hints) every restored payload is still
bit-identical to what hint mode restores — speculation may change where
bytes are staged, never what a restore returns.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, PredictConfig
from repro.core.engine import ScoreEngine
from repro.core.restore_queue import RestoreQueue
from repro.predict import SyntheticRestoreQueue
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import MiB
from repro.workloads.kvcache import (
    KvCacheSpec,
    generate_kvcache_schedule,
    run_kvcache,
)
from repro.workloads.patterns import RestoreOrder, restore_order
from tests.conftest import tiny_config

CKPT = 128 * MiB
VERSIONS = 12


def _run_scenario(predict_cfg):
    cfg = tiny_config(telemetry=True)
    if predict_cfg is not None:
        cfg = cfg.with_(predict=predict_cfg)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            # The gates under test: nothing built, the plain queue in place.
            assert engine.predict is None
            assert type(engine.queue) is RestoreQueue
            assert not isinstance(engine.queue, SyntheticRestoreQueue)
            sums = {}
            for v in range(VERSIONS):
                buf = ctx.device.alloc_buffer(CKPT)
                buf.fill_random(make_rng(v, "predict-equiv"))
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
            assert not any(ev.name.startswith("spec-") for ev in events)
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
            predict_counters = {
                name: registry.counter(name).value
                for name in (
                    "predict.refreshes",
                    "predict.spec_hits",
                    "predict.spec_wastes",
                    "predict.spec_prefetches",
                    "predict.suspensions",
                )
            }
            assert all(v == 0 for v in predict_counters.values())
            return decisions, layouts, tier_bytes, restored


def test_disabled_prediction_is_bit_identical():
    default = _run_scenario(None)
    off = _run_scenario(PredictConfig(enabled=False))
    assert json.dumps(default, default=str) == json.dumps(off, default=str)


# -- learned == hints on payload bytes (fault-free schedules) -----------------
def _kv_run(spec, mode):
    changes = {"telemetry": True}
    if mode == "learned":
        changes["predict"] = PredictConfig(enabled=True)
    cfg = tiny_config(**changes).with_(
        cache=CacheConfig(
            gpu_cache_size=2 * 128 * MiB, host_cache_size=4 * 128 * MiB
        )
    )
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx) as engine:
            return run_kvcache(engine, spec, hints=(mode == "hints"))


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    sessions=st.sampled_from([4, 6, 8]),
    adversarial=st.booleans(),
)
def test_learned_restores_bit_identical_to_hint_mode(seed, sessions, adversarial):
    spec = KvCacheSpec(
        sessions=sessions,
        events=4 * sessions,
        base_period_s=0.2,
        think_s=0.001,
        adversarial=adversarial,
        seed=seed,
    )
    hint = _kv_run(spec, "hints")
    learned = _kv_run(spec, "learned")
    # run_kvcache checksum-verifies every restore against the exact bytes
    # the session suspended: "verified == restores" in *both* modes means
    # every payload came back bit-identical, speculation or not.  The
    # count comes from the schedule: an adversarial trace picks sessions
    # uniformly at random, so a session may never activate at all.
    schedule = generate_kvcache_schedule(spec)
    restores = sum(1 for ev in schedule if ev.restore_id is not None)
    assert len(hint.restore_latencies) == restores
    assert len(learned.restore_latencies) == restores
    assert hint.verified == restores
    assert learned.verified == restores
    assert hint.abandoned == learned.abandoned
