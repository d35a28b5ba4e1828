"""Self-healing integration tests: injected faults, crashes and recovery.

The acceptance bar for the self-healing every runtime arms:

* a corrupted durable blob is detected on restore, scrubbed, and repaired
  from a surviving replica — the restore still returns verified bytes;
* an injected process crash at *any* flush-stage boundary loses nothing
  durable: re-incarnation + ``recover_history()`` (one scan of the stores)
  recovers every checkpoint that reached a durable tier, including
  reduced ones (via the chunk-recipe sidecar);
* transient link faults are retried until every checkpoint is durable;
* a hard SSD outage reroutes the cascade to the PFS and backfills the SSD
  copy once the tier heals;
* at-rest corruption injected under a flush is caught by the post-commit
  CRC reverify and repaired by a bounded re-put — no rotten blob stays
  visible on a durable tier;
* ``checkpoint()`` is exception-safe: a mid-write failure rolls back the
  cache slot, the reducer chain head and the catalog record;
* ``wait_for_flushes`` honours the configured timeout and reports
  retry/breaker state in the stall diagnostics;
* (property) fault-injected runs restore bit-identical data to fault-free
  runs — faults may cost time, never correctness.

The flush-side scenarios run under both chunk plans of the one cascade
(``stream`` ∈ {off: every flush is a one-chunk pipeline, on: 128 MiB
checkpoints stream as eight 16 MiB chunks}), so one test body guards both.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    ClusterConfig,
    FaultConfig,
    ReduceConfig,
    StreamConfig,
)
from repro.core.engine import ScoreEngine
from repro.core.validator import validate_engine
from repro.errors import FlushTimeoutError, InjectedCrash
from repro.tiers.base import TierLevel
from repro.tiers.topology import Cluster
from repro.util.units import MiB
from tests.conftest import (
    FaultClock,
    both_chunk_plans,
    make_buffer,
    tamper_blob,
    tiny_config,
)

CKPT = 128 * MiB

STREAMING = StreamConfig(enabled=True)


class TestCorruptionRepair:
    @both_chunk_plans
    def test_restore_repairs_corrupt_ssd_blob_from_pfs(self, stream):
        cfg = tiny_config(stream=stream)
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            sums = {}
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                for v in range(3):
                    buf = make_buffer(ctx, CKPT, seed=v)
                    sums[v] = buf.checksum()
                    engine.checkpoint(v, buf)
                engine.wait_for_flushes(timeout=600.0)
                pid = engine.process_id
            # Rot at rest while the process is down.
            rotten = tamper_blob(cluster.nodes[0].ssd, (pid, 0))
            with ScoreEngine(ctx, flush_to_pfs=True) as engine2:
                assert engine2.recover_history() == 3
                out = ctx.device.alloc_buffer(CKPT)
                engine2.restore(0, out)  # detects the mismatch, repairs
                assert out.checksum() == sums[0]
                # The bad blob was scrubbed and re-flushed from the PFS copy.
                key = (pid, 0)
                assert engine2.ssd.contains(key)
                assert engine2.ssd.verify(key)
                assert (engine2.ssd._blobs[key] != rotten).any()  # the rot is gone
                reg = cluster.telemetry.registry
                assert reg.counter("resilience.corruption_repairs").value >= 1
                for v in (1, 2):
                    engine2.restore(v, out)
                    assert out.checksum() == sums[v]
                validate_engine(engine2)

    @both_chunk_plans
    def test_unrepairable_corruption_still_raises(self, stream):
        """Every durable copy rotten -> IntegrityError, never silent data."""
        from repro.errors import IntegrityError

        cfg = tiny_config(stream=stream)
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                engine.checkpoint(0, make_buffer(ctx, CKPT, seed=0))
                engine.wait_for_flushes(timeout=600.0)
                pid = engine.process_id
            tamper_blob(cluster.nodes[0].ssd, (pid, 0))
            tamper_blob(cluster.pfs, (pid, 0))
            with ScoreEngine(ctx, flush_to_pfs=True) as engine2:
                engine2.recover_history()
                with pytest.raises(IntegrityError):
                    engine2.restore(0, ctx.device.alloc_buffer(CKPT))

    @both_chunk_plans
    def test_flush_reverify_repairs_at_rest_corruption(self, stream):
        """Half of all put attempts rot at rest: the post-commit CRC scrub
        catches each one and re-puts from the pristine payload, so every
        blob left visible on a durable tier verifies."""
        cfg = tiny_config(stream=stream, faults=FaultConfig(seed=11, corruption_rate=0.5))
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                sums = {}
                for v in range(6):
                    buf = make_buffer(ctx, CKPT, seed=v)
                    sums[v] = buf.checksum()
                    engine.checkpoint(v, buf)
                    engine.wait_for_flushes(timeout=600.0)
                assert engine.flusher.reflushed >= 1
                assert cluster.faults.snapshot()["corruptions"] >= 1
                pid = engine.process_id
                for store in (engine.ssd, cluster.pfs):
                    for v in range(6):
                        if store.contains((pid, v)):
                            assert store.verify((pid, v))
                out = ctx.device.alloc_buffer(CKPT)
                for v in range(6):
                    engine.restore(v, out)
                    assert out.checksum() == sums[v]
                validate_engine(engine)


def _crash_scenario(point, *, stream, gpudirect=False, nodes=1,
                    replicate=False, reduce_cfg=None):
    """Checkpoint v0 cleanly, crash the engine at ``point`` while flushing
    v1, then re-incarnate and assert every durable checkpoint recovers
    with verified bytes."""
    cfg = tiny_config(
        stream=stream,
        faults=FaultConfig(crash_point=point, crash_ckpt=1),
        num_nodes=nodes,
    )
    if reduce_cfg is not None:
        cfg = cfg.with_(reduce=reduce_cfg)
    if replicate:
        cfg = cfg.with_(cluster=ClusterConfig(enabled=True, replica_factor=2))
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        engine = ScoreEngine(ctx, flush_to_pfs=True, gpudirect=gpudirect)
        sums = {}
        buf0 = make_buffer(ctx, CKPT, seed=0)
        sums[0] = buf0.checksum()
        engine.checkpoint(0, buf0)
        engine.wait_for_flushes(timeout=600.0)
        buf1 = make_buffer(ctx, CKPT, seed=1)
        sums[1] = buf1.checksum()
        try:
            engine.checkpoint(1, buf1)
        except InjectedCrash:
            pass  # before-d2s fires synchronously enough to surface here
        engine.close()  # streams drain; crashed stages drop their work
        assert cluster.faults.crashes == 1
        assert engine.crashed.is_set()
        pid = engine.process_id

        # What actually reached a durable tier decides what must come back.
        stores = [cluster.nodes[0].ssd, cluster.pfs]
        if nodes > 1:
            stores.append(cluster.nodes[1].ssd)
        durable = {
            v for v in (0, 1) if any(s.contains((pid, v)) for s in stores)
        }
        assert 0 in durable  # v0 flushed cleanly before the crash

        engine2 = ScoreEngine(ctx, flush_to_pfs=True, gpudirect=gpudirect)
        try:
            recovered = engine2.recover_history()
            assert recovered == len(durable)
            out = ctx.device.alloc_buffer(CKPT)
            for v in sorted(durable):
                engine2.restore(v, out)
                assert out.checksum() == sums[v]
            validate_engine(engine2)
        finally:
            engine2.close()
        return durable, cluster, pid


class TestCrashMatrix:
    """Re-incarnation after an injected crash at every flush-stage boundary
    recovers 100% of the durable checkpoints — commit-at-end: a crash
    between chunk commits leaves no torn object either."""

    @both_chunk_plans
    @pytest.mark.parametrize(
        "point",
        [
            "before-d2h", "after-d2h",
            "before-h2f", "after-h2f",
            "before-f2p", "after-f2p",
        ],
    )
    def test_host_cascade(self, point, stream):
        durable, cluster, pid = _crash_scenario(point, stream=stream)
        if point in ("after-h2f", "before-f2p", "after-f2p"):
            assert 1 in durable  # SSD put committed before these points
        if point == "before-h2f":
            # Crashed before any durable commit of v1: no torn object.
            assert not cluster.nodes[0].ssd.contains((pid, 1))

    @both_chunk_plans
    @pytest.mark.parametrize("point", ["before-d2s", "after-d2s"])
    def test_gpudirect_cascade(self, point, stream):
        durable, _, _ = _crash_scenario(point, stream=stream, gpudirect=True)
        if point == "after-d2s":
            assert 1 in durable

    @both_chunk_plans
    @pytest.mark.parametrize("point", ["before-repl", "after-repl"])
    def test_replication_leg(self, point, stream):
        # Replication runs after local durability: v1 always recovers.
        durable, cluster, pid = _crash_scenario(
            point, stream=stream, nodes=2, replicate=True
        )
        assert 1 in durable

    def test_crashed_engine_rejects_new_work(self):
        cfg = tiny_config(
            faults=FaultConfig(crash_point="before-h2f", crash_ckpt=0),
        )
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            engine = ScoreEngine(ctx)
            engine.checkpoint(0, make_buffer(ctx, CKPT, seed=0))
            engine.crashed.wait(timeout=30.0)  # the flush stream trips it
            assert engine.crashed.is_set()
            with pytest.raises(InjectedCrash):
                engine.checkpoint(1, make_buffer(ctx, CKPT, seed=1))
            engine.close()

    @both_chunk_plans
    def test_crash_recovers_reduced_checkpoints(self, stream):
        """The chunk-recipe sidecar makes reduced checkpoints crash-safe."""
        durable, _, _ = _crash_scenario(
            "after-h2f", stream=stream, reduce_cfg=ReduceConfig(enabled=True)
        )
        assert 1 in durable


def test_transient_link_faults_are_retried_until_every_checkpoint_is_durable():
    """The default config retries: a link-fault rate leaves every checkpoint
    durable, with the retries counted, and restores verified bytes."""
    cfg = tiny_config(faults=FaultConfig(seed=5, transfer_fault_rate=0.1))
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            sums = {}
            for v in range(8):
                buf = make_buffer(ctx, CKPT, seed=v)
                sums[v] = buf.checksum()
                engine.checkpoint(v, buf)
                engine.wait_for_flushes(timeout=600.0)
            assert all(engine.catalog.get(v).durable_level is not None for v in sums)
            assert engine.stats()["resilience"]["flush_retries"] > 0
            out = ctx.device.alloc_buffer(CKPT)
            for v, checksum in sums.items():
                engine.restore(v, out)
                assert out.checksum() == checksum
            validate_engine(engine)


class TestOutageRerouteAndBackfill:
    @both_chunk_plans
    def test_ssd_outage_reroutes_to_pfs_then_backfills(self, stream):
        # The clock is scaled wall time: [0, 500) virtual seconds is 1 s of
        # wall at TEST_SCALE, so a host stall cannot expire the outage
        # before the durable hop reaches the SSD gate.
        cfg = tiny_config(
            stream=stream,
            faults=FaultConfig(tier_outages=(("ssd", 0.0, 500.0, 0.0),)),
        )
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                sums = {}
                # Phase 1: the SSD is dark; durability must arrive via the
                # GPU->host->PFS reroute, not be abandoned.
                buf = make_buffer(ctx, CKPT, seed=0)
                sums[0] = buf.checksum()
                engine.checkpoint(0, buf)
                engine.wait_for_flushes(timeout=600.0)
                record = engine.catalog.get(0)
                assert record.durable_level is TierLevel.PFS
                assert engine.flusher.rerouted >= 1
                assert not engine.ssd.contains((engine.process_id, 0))

                # Phase 2: the tier heals; the cascade backfills the SSD
                # copy so reads regain the fast path.
                engine.clock.sleep(max(0.0, 505.0 - engine.clock.now()))
                buf = make_buffer(ctx, CKPT, seed=1)
                sums[1] = buf.checksum()
                engine.checkpoint(1, buf)
                engine.wait_for_flushes(timeout=600.0)
                assert engine.ssd.contains((engine.process_id, 0))
                assert engine.flusher.backfilled >= 1
                assert engine.flusher.backfill_depth == 0

                out = ctx.device.alloc_buffer(CKPT)
                for v in (0, 1):
                    engine.restore(v, out)
                    assert out.checksum() == sums[v]
                stats = engine.stats()["resilience"]
                assert stats["rerouted"] >= 1
                assert stats["backfilled"] >= 1
                validate_engine(engine)

    @both_chunk_plans
    def test_restore_routes_around_dark_ssd(self, stream):
        """With copies on SSD and PFS, a restore during an SSD outage is
        served from the PFS instead of failing."""
        cfg = tiny_config(
            stream=stream,
            faults=FaultConfig(tier_outages=(("ssd", 1e6, 1e9, 0.0),)),
        )
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                buf = make_buffer(ctx, CKPT, seed=7)
                expected = buf.checksum()
                engine.checkpoint(0, buf)
                engine.wait_for_flushes(timeout=600.0)
            # Deep into the outage window, a replacement process recovers
            # and restores without touching the dark SSD.  The fault plan's
            # clock jumps there: a window at 5 nominal seconds (10 ms of
            # wall time) used to open *before* a slow host had flushed, and
            # the restore then spun on the dark drive for ever.
            cluster.faults.clock = FaultClock(2e6)
            with ScoreEngine(ctx, flush_to_pfs=True) as engine2:
                assert engine2.recover_history() >= 1
                out = ctx.device.alloc_buffer(CKPT)
                engine2.restore(0, out)
                assert out.checksum() == expected


class TestCheckpointRollback:
    def _fail_write_once(self, engine):
        original = engine.gpu_cache.write_payload
        state = {"armed": True}

        def boom(record, payload):
            if state["armed"]:
                state["armed"] = False
                raise RuntimeError("injected cache-write failure")
            return original(record, payload)

        engine.gpu_cache.write_payload = boom

    def test_failed_checkpoint_rolls_back_cleanly(self, context):
        engine = ScoreEngine(context)
        try:
            engine.checkpoint(0, make_buffer(context, CKPT, seed=0))
            self._fail_write_once(engine)
            with pytest.raises(RuntimeError):
                engine.checkpoint(1, make_buffer(context, CKPT, seed=1))
            assert not engine.catalog.contains(1)
            validate_engine(engine)  # no orphaned slot, no leaked instance
            # The same id can be checkpointed again after the rollback.
            buf = make_buffer(context, CKPT, seed=1)
            engine.checkpoint(1, buf)
            engine.wait_for_flushes(timeout=600.0)
            out = context.device.alloc_buffer(CKPT)
            engine.restore(1, out)
            assert out.checksum() == buf.checksum()
            validate_engine(engine)
        finally:
            engine.close()

    def test_rollback_rewinds_reducer_chain_head(self):
        cfg = tiny_config(reduce=ReduceConfig(enabled=True))
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx) as engine:
                engine.checkpoint(0, make_buffer(ctx, CKPT, seed=0))
                self._fail_write_once(engine)
                with pytest.raises(RuntimeError):
                    engine.checkpoint(1, make_buffer(ctx, CKPT, seed=1))
                assert not engine.catalog.contains(1)
                # The delta-chain head is back on v0 and the recipe sidecar
                # holds nothing for the aborted write.
                assert engine.reducer._last_image.ckpt_id == 0
                assert not cluster.recipes.contains(engine.process_id, 1)
                validate_engine(engine)  # includes the chain-head invariant
                buf = make_buffer(ctx, CKPT, seed=1)
                engine.checkpoint(1, buf)
                engine.wait_for_flushes(timeout=600.0)
                out = ctx.device.alloc_buffer(CKPT)
                engine.restore(1, out)
                assert out.checksum() == buf.checksum()
                validate_engine(engine)


class TestFlushWaitTimeout:
    def test_timeout_fires_with_stall_report(self):
        # A deep brownout makes the h2f leg ~1000x slower than nominal, so
        # the timeout fires while the put is in flight.
        cfg = tiny_config(
            faults=FaultConfig(tier_outages=(("ssd", 0.0, 1e9, 0.001),)),
        )
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx) as engine:
                engine.checkpoint(0, make_buffer(ctx, CKPT, seed=0))
                with pytest.raises(FlushTimeoutError) as excinfo:
                    engine.wait_for_flushes(timeout=5.0)
                message = str(excinfo.value)
                assert "stream depths" in message
                assert "retries=" in message  # self-healing state included
                assert "breakers" in message
                assert "injected" in message  # fault-domain snapshot
                # The flush completes eventually; nothing was lost.
                engine.wait_for_flushes(timeout=600.0)
                assert engine.catalog.get(0).durable_level is TierLevel.SSD

    def test_negative_timeout_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.wait_for_flushes(timeout=-1.0)


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    rate=st.sampled_from([0.02, 0.1, 0.3]),
)
def test_injected_faults_never_change_restored_bytes(seed, rate):
    """Property: transient faults + retries cost time, never correctness —
    every restore returns exactly the checksum a fault-free run returns
    (which is the application buffer's own checksum)."""
    cfg = tiny_config(
        faults=FaultConfig(seed=seed, transfer_fault_rate=rate),
    )
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            sums = {}
            for v in range(6):
                buf = make_buffer(ctx, CKPT, seed=v)
                sums[v] = buf.checksum()
                engine.checkpoint(v, buf)
                engine.wait_for_flushes(timeout=600.0)
            out = ctx.device.alloc_buffer(CKPT)
            for v in range(6):
                engine.restore(v, out)
                assert out.checksum() == sums[v]
            validate_engine(engine)
