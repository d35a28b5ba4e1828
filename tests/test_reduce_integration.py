"""End-to-end reduction: enabled-mode correctness across the tier cascade."""

from repro.config import ReduceConfig
from repro.core.engine import ScoreEngine
from repro.core.validator import validate_engine
from repro.tiers.base import TierLevel
from repro.tiers.topology import Cluster
from repro.util.units import MiB
from repro.workloads.patterns import RestoreOrder, restore_order
from repro.workloads.rtm import uniform_trace
from repro.workloads.shot import HintMode, ShotSpec, run_shot
from tests.conftest import make_buffer, tiny_config

CKPT = 128 * MiB


def test_restores_byte_identical_under_churn():
    """2.5 GiB through 0.5+2 GiB caches: reduced checkpoints survive
    eviction to SSD/PFS and restore byte-for-byte (CRC verified by the
    engine) with the validator's refcount invariants holding throughout."""
    cfg = tiny_config(reduce=ReduceConfig(enabled=True))
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            sums = {}
            for v in range(20):
                buf = make_buffer(ctx, CKPT, seed=v)
                sums[v] = buf.checksum()
                engine.checkpoint(v, buf)
            engine.wait_for_flushes(timeout=600.0)
            validate_engine(engine)
            out = ctx.device.alloc_buffer(CKPT)
            for v in restore_order(RestoreOrder.IRREGULAR, 20, seed=2):
                engine.restore(v, out)
                assert out.checksum() == sums[v], f"corruption at {v}"
            validate_engine(engine)
            stats = engine.stats()["reduction"]
            assert stats["encodes"] == 20
            assert stats["physical_bytes"] < stats["logical_bytes"]


def test_similar_payloads_dedup_and_shrink_tier_traffic():
    cfg = tiny_config(reduce=ReduceConfig(enabled=True), telemetry=True)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        trace = uniform_trace(cfg.scale, num_snapshots=24)
        spec = ShotSpec(
            trace=trace,
            restore_order=restore_order(RestoreOrder.REVERSE, 24),
            hint_mode=HintMode.ALL,
            wait_for_flush=True,
            similarity=0.9,
            seed=5,
        )
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            result = run_shot(engine, spec)
            validate_engine(engine)
            stats = result.engine_stats["reduction"]
            chunks = (
                stats["new_chunks"] + stats["dup_chunks"] + stats["delta_chunks"]
            )
            assert stats["dup_chunks"] / chunks > 0.5  # similarity drives dedup
            registry = cluster.telemetry.registry
            logical = trace.total_bytes
            assert registry.counter("tier.ssd.write_bytes").value < logical
            assert registry.counter("tier.pfs.write_bytes").value < logical


def test_every_tier_and_link_holds_the_one_physical_form():
    """One reduced checkpoint through GPU → host → SSD → PFS: the PCIe
    crossings, both cache extents and both durable writes are
    ``physical_size`` bytes, and a restore off the durable tiers reassembles
    the logical payload exactly once, at its copy-out."""
    cfg = tiny_config(reduce=ReduceConfig(enabled=True), telemetry=True)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        registry = cluster.telemetry.registry
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            buf = make_buffer(ctx, CKPT, seed=1)
            want = buf.checksum()
            engine.checkpoint(0, buf)
            engine.wait_for_flushes(timeout=600.0)
            record = engine.catalog.get(0)
            physical = record.physical_size
            assert physical < record.nominal_size
            assert engine.device.d2h_link.bytes_moved == physical
            assert engine.gpu_cache.table.lookup(0).size == physical
            assert engine.host_cache.table.lookup(0).size == physical
            assert registry.counter("tier.ssd.write_bytes").value == physical
            assert registry.counter("tier.pfs.write_bytes").value == physical
            # Churn both caches until checkpoint 0 is held durably alone.
            for v in range(1, 64):
                if record.fastest_cached_level() is None:
                    break
                engine.checkpoint(v, make_buffer(ctx, CKPT, seed=1 + v))
                engine.wait_for_flushes(timeout=600.0)
            assert record.fastest_cached_level() is None
            decodes = []
            reconstruct = engine.reducer.reconstruct

            def counted(rec):
                decodes.append(rec.ckpt_id)
                return reconstruct(rec)

            engine.reducer.reconstruct = counted
            h2d = engine.device.h2d_link.bytes_moved
            out = ctx.device.alloc_buffer(CKPT)
            engine.restore(0, out)
            assert out.checksum() == want
            assert decodes == [0]
            assert engine.device.h2d_link.bytes_moved - h2d == physical
            validate_engine(engine)


def test_gpudirect_reduction_round_trip():
    """GPUDirect skips the host tier; reduced checkpoints still flush
    straight to the SSD and restore byte-for-byte."""
    cfg = tiny_config(reduce=ReduceConfig(enabled=True))
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, gpudirect=True, flush_to_pfs=True) as engine:
            sums = {}
            for v in range(8):
                buf = make_buffer(ctx, CKPT, seed=100 + v)
                sums[v] = buf.checksum()
                engine.checkpoint(v, buf)
            engine.wait_for_flushes(timeout=600.0)
            validate_engine(engine)
            out = ctx.device.alloc_buffer(CKPT)
            for v in reversed(range(8)):
                engine.restore(v, out)
                assert out.checksum() == sums[v]


def test_recovery_rebuilds_ssd_only_reduced_blobs_from_the_sidecar():
    """Reduced SSD blobs are physical-size placeholders; the bytes live in
    the chunk recipe, which the cluster's sidecar keeps past the reducer
    that wrote it.  A fresh engine on the same cluster, with no PFS copy to
    fall back on, rebuilds every checkpoint from its recipe."""
    cfg = tiny_config(reduce=ReduceConfig(enabled=True))
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        sums = {}
        with ScoreEngine(ctx) as engine:
            for v in range(4):
                buf = make_buffer(ctx, CKPT, seed=v)
                sums[v] = buf.checksum()
                engine.checkpoint(v, buf)
            engine.wait_for_flushes(timeout=600.0)
        with ScoreEngine(ctx) as reborn:
            assert reborn.recover_history() == 4
            out = ctx.device.alloc_buffer(CKPT)
            for v in range(4):
                assert reborn.catalog.get(v).durable_level is TierLevel.SSD
                reborn.restore(v, out)
                assert out.checksum() == sums[v]
            validate_engine(reborn)


def test_recovery_restores_reduced_checkpoints():
    """The chunk-recipe sidecar outlives the engine: a re-incarnated
    process rebuilds each ReducedImage from its recipe and restores the full
    logical bytes, CRC-verified."""
    cfg = tiny_config(reduce=ReduceConfig(enabled=True))
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        engine = ScoreEngine(ctx, flush_to_pfs=True)
        sums = {}
        for v in range(4):
            buf = make_buffer(ctx, CKPT, seed=v)
            sums[v] = buf.checksum()
            engine.checkpoint(v, buf)
        engine.wait_for_flushes(timeout=600.0)
        engine.close()
        reborn = ScoreEngine(ctx, flush_to_pfs=True)
        try:
            assert reborn.recover_history() == 4
            out = ctx.device.alloc_buffer(CKPT)
            for v in range(4):
                record = reborn.catalog.get(v)
                assert record.reduction is not None  # rebuilt from the recipe
                reborn.restore(v, out)
                assert out.checksum() == sums[v]
            validate_engine(reborn)
        finally:
            reborn.close()


def test_recovery_restores_reduced_checkpoints_across_clusters(tmp_path):
    """Full restart with a file-backed SSD tier: a brand-new cluster
    recovers from the blobs' ``.meta.json`` sidecars and the chunk recipes
    alone, re-indexed from disk."""
    cfg = tiny_config(reduce=ReduceConfig(enabled=True), ssd_directory=str(tmp_path))
    sums = {}
    with Cluster(cfg) as c1:
        ctx = c1.process_contexts()[0]
        with ScoreEngine(ctx) as engine:
            for v in range(4):
                buf = make_buffer(ctx, CKPT, seed=v)
                sums[v] = buf.checksum()
                engine.checkpoint(v, buf)
            engine.wait_for_flushes(timeout=600.0)
    files = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
    assert sum(name.endswith(".meta.json") for name in files) == 4
    assert sum(name.endswith(".recipe.json") for name in files) == 4
    # Blobs, their metadata and the recipes: no other record (no journal).
    assert all(name.endswith((".bin", ".meta.json", ".recipe.json")) for name in files)
    with Cluster(cfg) as c2:
        ctx = c2.process_contexts()[0]
        with ScoreEngine(ctx) as engine:
            assert engine.recover_history() == 4
            out = ctx.device.alloc_buffer(CKPT)
            for v in range(4):
                engine.restore(v, out)
                assert out.checksum() == sums[v]
            validate_engine(engine)


def test_unreduced_history_still_recovers():
    cfg = tiny_config()
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        engine = ScoreEngine(ctx)
        sums = {}
        for v in range(4):
            buf = make_buffer(ctx, CKPT, seed=v)
            sums[v] = buf.checksum()
            engine.checkpoint(v, buf)
        engine.wait_for_flushes(timeout=600.0)
        engine.close()
        reborn = ScoreEngine(ctx)
        try:
            assert reborn.recover_history() == 4
            out = ctx.device.alloc_buffer(CKPT)
            for v in range(4):
                reborn.restore(v, out)
                assert out.checksum() == sums[v]
        finally:
            reborn.close()


def test_trace_cli_reduce_flag(tmp_path):
    from repro.telemetry.cli import run_trace

    out = run_trace(
        "quickstart", out_dir=str(tmp_path), snapshots=8, processes=1, reduce=True
    )
    assert "reduce" in out
    report = out["reduce_rendered"]
    assert "dedup hit rate" in report
    with open(out["reduce"]) as fh:
        assert fh.read().strip() == report.strip()


def test_prefetch_budget_counts_physical_bytes():
    """With reduction on, the prefetch budget admits more (smaller)
    checkpoints than the logical sizes would allow — exercised simply by
    hinted restores completing under tight caches."""
    cfg = tiny_config(reduce=ReduceConfig(enabled=True))
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        trace = uniform_trace(cfg.scale, num_snapshots=16)
        spec = ShotSpec(
            trace=trace,
            restore_order=restore_order(RestoreOrder.REVERSE, 16),
            hint_mode=HintMode.ALL,
            wait_for_flush=True,
            similarity=0.8,
            seed=9,
        )
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            run_shot(engine, spec)
            validate_engine(engine)
