"""Node failure domain: crash/rejoin chaos, anti-entropy repair, failover."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.directory import ReplicaDirectory
from repro.cluster.topology import ClusterTopology
from repro.config import CRASH_STAGES, ClusterConfig, FaultConfig
from repro.errors import ConfigError, InjectedCrash, TierOfflineError
from repro.util.rng import make_rng
from repro.util.units import MiB
from tests.conftest import tiny_config

CKPT = 64 * MiB


def chaos_config(num_nodes=3, faults=None, **cluster_kw):
    cluster_kw.setdefault("repair", True)
    cluster_kw.setdefault("failover", True)
    changes = dict(
        num_nodes=num_nodes,
        cluster=ClusterConfig(enabled=True, **cluster_kw),
    )
    if faults is not None:
        changes["faults"] = faults
    return tiny_config(**changes)


def make_topology(config, **engine_kw):
    engine_kw.setdefault("flush_to_pfs", True)
    return ClusterTopology(config, engine_kwargs=engine_kw)


def fill(engine, size=CKPT, seed=23):
    buf = engine.device.alloc_buffer(size)
    buf.fill_random(make_rng(seed, "chaos-test"))
    return buf


def submit_all(topo, count=1, size=CKPT):
    """One checkpoint per client session; returns {ckpt_id: checksum}."""
    sessions = [topo.service.connect(f"c{i}") for i in range(count)]
    sums = {}
    for i, session in enumerate(sessions):
        buf = fill(session.engine, size=size, seed=100 + i)
        sums[i] = buf.checksum()
        session.submit(i, buf)
    for engine in topo.engines:
        engine.wait_for_flushes(timeout=600.0)
    return sessions, sums


class TestReplicaDirectoryWithdraw:
    def test_withdraw_is_idempotent(self):
        directory = ReplicaDirectory()
        directory.publish((0, 0), 0)
        directory.publish((0, 0), 1)
        assert directory.withdraw((0, 0), 1) is True
        assert directory.withdraw((0, 0), 1) is False  # double withdraw
        assert directory.holders((0, 0)) == [0]

    def test_withdraw_of_last_holder_forgets_the_key(self):
        directory = ReplicaDirectory()
        directory.publish((0, 0), 2)
        assert directory.withdraw((0, 0), 2) is True
        assert directory.holders((0, 0)) == []
        assert len(directory) == 0
        # Withdrawing from a forgotten key stays a clean no-op.
        assert directory.withdraw((0, 0), 2) is False

    def test_withdraw_of_unknown_holder_is_a_noop(self):
        directory = ReplicaDirectory()
        directory.publish((0, 0), 0)
        assert directory.withdraw((0, 0), 7) is False
        assert directory.holders((0, 0)) == [0]

    def test_withdraw_node_sweeps_every_key_atomically(self):
        directory = ReplicaDirectory()
        directory.publish((0, 0), 0)
        directory.publish((0, 0), 1)
        directory.publish((8, 1), 1)
        withdrawn = directory.withdraw_node(1)
        assert sorted(withdrawn) == [(0, 0), (8, 1)]
        assert directory.holders((0, 0)) == [0]
        assert directory.holders((8, 1)) == []
        assert directory.withdraw_node(1) == []  # idempotent


class TestMembership:
    def test_inert_without_chaos(self):
        with make_topology(chaos_config()) as topo:
            membership = topo.fabric.membership
            assert membership.active is False
            assert membership.live_nodes() == [0, 1, 2]
            assert membership.reachable(0, 1)

    def test_crash_is_idempotent_and_kills_the_node(self):
        with make_topology(chaos_config()) as topo:
            submit_all(topo)
            membership = topo.fabric.membership
            membership.crash(1, "fail-stop")
            membership.crash(1, "fail-stop")  # no-op
            assert membership.active is True
            assert membership.state(1) == "down"
            assert topo.cluster.nodes[1].ssd.offline
            assert topo.engines[1].crashed.is_set()
            with pytest.raises(InjectedCrash):
                topo.engines[1].checkpoint(99, fill(topo.engines[1]))
            with pytest.raises(TierOfflineError):
                topo.cluster.nodes[1].ssd.get((0, 0))
            snap = topo.telemetry.registry.snapshot()
            assert snap["cluster.membership.crashes"] == 1
            assert snap["cluster.membership.live_nodes"] == 2

    def test_unknown_mode_and_node_are_config_errors(self):
        with make_topology(chaos_config()) as topo:
            with pytest.raises(ConfigError):
                topo.fabric.membership.crash(0, "brownout")
            with pytest.raises(ConfigError):
                topo.fabric.membership.crash(17)

    def test_fail_stop_loses_media_power_loss_keeps_it(self):
        # repair off: a rejoin must not backfill the key and mask what the
        # crash mode did to the media.
        for mode, survives in (("fail-stop", False), ("power-loss", True)):
            with make_topology(chaos_config(repair=False)) as topo:
                session = topo.service.connect("c0")
                buf = fill(session.engine)
                session.submit(0, buf)
                for engine in topo.engines:
                    engine.wait_for_flushes(timeout=600.0)
                key = (session.engine.process_id, 0)
                membership = topo.fabric.membership
                membership.crash(1, mode)
                membership.rejoin(1)
                assert membership.state(1) == "up"  # no repairer: straight up
                assert topo.cluster.nodes[1].ssd.contains(key) is survives

    def test_partition_window_blocks_reachability(self):
        # The virtual clock is wall-driven, so window edges use extremes
        # (always-open / far-future) rather than racing the clock.
        faults = FaultConfig(partitions=((0, 1, 0.0, 1e9),))
        with make_topology(chaos_config(faults=faults)) as topo:
            membership = topo.fabric.membership
            assert membership.active is True
            assert not membership.reachable(0, 1)
            assert not membership.reachable(1, 0)  # symmetric
            assert membership.reachable(0, 2)  # other pairs untouched
        faults = FaultConfig(partitions=((0, 1, 1e9, 2e9),))
        with make_topology(chaos_config(faults=faults)) as topo:
            assert topo.fabric.membership.reachable(0, 1)  # window not open

    def test_scheduled_crash_applies_on_tick(self):
        faults = FaultConfig(node_crashes=((1, 0.0, "fail-stop"),))
        with make_topology(chaos_config(faults=faults)) as topo:
            membership = topo.fabric.membership
            assert membership.state(1) == "up"  # not applied yet
            membership.tick()
            assert membership.state(1) == "down"


class TestRepair:
    def test_crash_triggers_repair_back_to_factor(self):
        with make_topology(chaos_config(num_nodes=4)) as topo:
            _, sums = submit_all(topo, count=4)
            fabric = topo.fabric
            before = {key: holders for key, holders in fabric.directory.snapshot()}
            assert all(len(h) == 2 for h in before.values())
            fabric.membership.crash(1, "fail-stop")
            assert fabric.repairer.pending()
            copies = fabric.repairer.run()
            assert copies >= 1
            after = dict(fabric.directory.snapshot())
            assert set(after) == set(before)
            assert all(len(h) >= 2 for h in after.values())
            assert all(1 not in h for h in after.values())
            assert not fabric.repairer.pending()
            snap = topo.telemetry.registry.snapshot()
            assert snap["cluster.repair.copies"] == copies
            assert snap["cluster.repair.pending"] == 0

    def test_repair_recovers_zero_holder_keys_from_pfs(self):
        """Both SSD holders die; the PFS copy seeds the re-replication."""
        with make_topology(chaos_config(num_nodes=4)) as topo:
            sessions, sums = submit_all(topo, count=1)
            key = (sessions[0].engine.process_id, 0)
            fabric = topo.fabric
            holders = fabric.directory.holders(key)
            assert len(holders) == 2
            for node in holders:
                fabric.membership.crash(node, "fail-stop")
            assert fabric.directory.holders(key) == []
            fabric.repairer.run()
            repaired = fabric.directory.holders(key)
            assert len(repaired) == 2
            assert not set(repaired) & set(holders)

    def test_repair_uses_repair_class_requests_under_sched(self):
        from repro.config import SchedConfig

        cfg = tiny_config(
            num_nodes=3,
            cluster=ClusterConfig(enabled=True, repair=True),
            sched=SchedConfig(enabled=True),
        )
        with make_topology(cfg) as topo:
            submit_all(topo)
            request = topo.fabric.repairer._request((0, 0))
            assert request is not None
            assert request.tclass.name == "CASCADE_FLUSH"
            topo.fabric.membership.crash(1, "fail-stop")
            assert topo.fabric.repairer.run() >= 1

    def test_repair_max_inflight_bounds_each_scan(self):
        cfg = chaos_config(num_nodes=4, repair_max_inflight=1)
        with make_topology(cfg) as topo:
            submit_all(topo, count=4)
            topo.fabric.membership.crash(1, "fail-stop")
            assert topo.fabric.repairer.repair_once() <= 1

    def test_rejoin_runs_backfill_before_entering_ring(self):
        with make_topology(chaos_config(num_nodes=3)) as topo:
            sessions, sums = submit_all(topo, count=3)
            fabric = topo.fabric
            fabric.membership.crash(1, "fail-stop")
            fabric.repairer.run()
            fabric.membership.rejoin(1)
            # Backfill ran to completion inside rejoin: the node is up
            # again and holds every blob its ring position owes.
            assert fabric.membership.state(1) == "up"
            ssd = topo.cluster.nodes[1].ssd
            owed = [
                key
                for key, _ in fabric.directory.snapshot()
                if 1 in fabric.repairer._desired_holders(key)
            ]
            assert owed, "ring position owes node 1 nothing — test is vacuous"
            assert all(ssd.contains(key) for key in owed)
            snap = topo.telemetry.registry.snapshot()
            assert snap["cluster.membership.rejoins"] == 1
            assert snap["cluster.repair.backfills"] >= 1


class TestDegradedReads:
    def test_partition_isolating_all_peers_drops_to_pfs(self):
        faults = FaultConfig(partitions=((2, 1, 0.0, 1e9),))
        cfg = tiny_config(
            num_nodes=3,
            cluster=ClusterConfig(enabled=True, replica_factor=1),
            faults=faults,
        )
        with make_topology(cfg) as topo:
            # Factor 1: node 1's SSD is the only holder, and the partition
            # cuts node 2 off from it for the whole run.
            topo.service.connect("c0")
            home = topo.engines[1]
            buf = fill(home)
            want = buf.checksum()
            self_sess = topo.service.connect("c-home")
            assert self_sess.engine is home
            self_sess.submit(0, buf)
            for engine in topo.engines:
                engine.wait_for_flushes(timeout=600.0)
            target = topo.engines[2]
            assert topo.fabric.peer_source(2, (home.process_id, 0)) is None
            out = target.device.alloc_buffer(CKPT)
            self_sess.restore(0, out, engine=target)
            assert out.checksum() == want
            snap = topo.telemetry.registry.snapshot()
            assert snap["cluster.membership.degraded_reads"] >= 1
            assert snap["tier.pfs.read_ops"] >= 1
            assert snap["cluster.peer.reads"] == 0


class TestServiceFailover:
    def test_submit_on_dead_home_fails_over_to_survivor(self):
        with make_topology(chaos_config(num_nodes=3)) as topo:
            session = topo.service.connect("c0")
            dead = session.engine
            topo.fabric.membership.crash(dead.node_id, "fail-stop")
            buf = fill(topo.engines[1])
            want = buf.checksum()
            session.submit(0, buf)
            assert session.engine is not dead
            assert not session.engine.crashed.is_set()
            session.engine.wait_for_flushes(timeout=600.0)
            out = session.engine.device.alloc_buffer(CKPT)
            session.restore(0, out)
            assert out.checksum() == want
            assert topo.service.stats()["failovers"] >= 1

    def test_restore_after_home_node_death_reads_surviving_copy(self):
        with make_topology(chaos_config(num_nodes=3)) as topo:
            session = topo.service.connect("c0")
            buf = fill(session.engine)
            want = buf.checksum()
            session.submit(0, buf)
            for engine in topo.engines:
                engine.wait_for_flushes(timeout=600.0)
            topo.fabric.membership.crash(session.engine.node_id, "fail-stop")
            topo.fabric.repairer.run()
            out = topo.engines[1].device.alloc_buffer(CKPT)
            session.restore(0, out)  # session re-pins transparently
            assert out.checksum() == want

    def test_in_flight_submit_replay_is_idempotent(self):
        """A submit that reached a durable tier before the node died is
        not re-executed on the failover engine."""
        with make_topology(chaos_config(num_nodes=3)) as topo:
            session = topo.service.connect("c0")
            home = session.engine
            buf = fill(home)
            want = buf.checksum()
            session.submit(0, buf)
            for engine in topo.engines:
                engine.wait_for_flushes(timeout=600.0)
            # Model the crash landing inside the RPC: the engine died but
            # the durable copy exists, so the replay must be skipped.
            topo.fabric.membership.crash(home.node_id, "fail-stop")
            latency = topo.service._failover_submit(session, 0, buf, home)
            assert latency == 0.0
            assert topo.service.stats()["replays_skipped"] == 1
            # Placement still resolves and the blob restores bit-identically.
            out = session.engine.device.alloc_buffer(CKPT)
            session.restore(0, out)
            assert out.checksum() == want

    def test_failover_disabled_surfaces_the_crash(self):
        with make_topology(chaos_config(num_nodes=3, failover=False)) as topo:
            session = topo.service.connect("c0")
            topo.fabric.membership.crash(session.engine.node_id, "fail-stop")
            with pytest.raises(InjectedCrash):
                session.submit(0, fill(topo.engines[1]))

    def test_no_survivors_is_a_lifecycle_error(self):
        from repro.errors import LifecycleError

        with make_topology(chaos_config(num_nodes=2)) as topo:
            session = topo.service.connect("c0")
            topo.fabric.membership.crash(0, "fail-stop")
            topo.fabric.membership.crash(1, "fail-stop")
            with pytest.raises(LifecycleError):
                session.submit(0, fill(topo.engines[0]))


class TestCrashMatrix:
    """Crash the home node at every flush-stage boundary; whatever became
    durable before the crash must restore bit-identically from a peer SSD
    replica or the PFS."""

    @pytest.mark.parametrize("stage", CRASH_STAGES)
    @pytest.mark.parametrize("mode", ["fail-stop", "power-loss"])
    def test_stage_boundary_node_crash_preserves_durable_data(self, stage, mode):
        faults = FaultConfig(crash_point=f"after-{stage}", crash_ckpt=0)
        with make_topology(chaos_config(num_nodes=3, faults=faults)) as topo:
            session = topo.service.connect("c0")
            home = session.engine
            buf = fill(home)
            want = buf.checksum()
            try:
                session.submit(0, buf)
            except InjectedCrash:
                pass  # before-d2h-style synchronous deaths
            for engine in topo.engines:
                if not engine.crashed.is_set():
                    engine.wait_for_flushes(timeout=600.0)
            # The flush-stage crash killed the home engine; now the whole
            # node goes with it.
            topo.fabric.membership.crash(home.node_id, mode)
            if topo.fabric.repairer.pending():
                topo.fabric.repairer.run()
            key = (home.process_id, 0)
            durable = bool(topo.fabric.directory.holders(key)) or (
                topo.cluster.pfs is not None and topo.cluster.pfs.contains(key)
            )
            survivor = next(e for e in topo.engines if not e.crashed.is_set())
            out = survivor.device.alloc_buffer(CKPT)
            if durable:
                session.restore(0, out, engine=survivor)
                assert out.checksum() == want
            else:
                with pytest.raises(Exception):
                    session.restore(0, out, engine=survivor)


class TestEquivalence:
    """Chaos machinery that never fires must not change what the fabric
    does: same directory layout, same tier byte counters, same restored
    bytes as a plain cluster run."""

    def _run(self, chaos):
        if chaos:
            faults = FaultConfig(
                node_crashes=((1, 1e9, "fail-stop"),),
                partitions=((0, 2, 1e9, 2e9),),
            )
            cfg = tiny_config(
                num_nodes=3,
                telemetry=True,
                cluster=ClusterConfig(enabled=True, repair=True, failover=True),
                faults=faults,
            )
        else:
            cfg = tiny_config(
                num_nodes=3, telemetry=True, cluster=ClusterConfig(enabled=True)
            )
        with make_topology(cfg) as topo:
            if chaos:
                assert topo.fabric.membership.active is True
            sessions, sums = submit_all(topo, count=3)
            restored = {}
            for i, session in enumerate(sessions):
                target = topo.engines[(i + 1) % 3]
                out = target.device.alloc_buffer(CKPT)
                session.restore(i, out, engine=target)
                restored[i] = out.checksum()
            assert restored == sums
            registry = topo.telemetry.registry.snapshot()
            counters = {
                name: registry[name]
                for name in (
                    "cluster.peer.reads",
                    "tier.ssd.write_bytes",
                    "tier.pfs.write_bytes",
                    "flush.repl.bytes",
                )
            }
            if chaos:
                assert registry["cluster.membership.crashes"] == 0
                assert registry["cluster.membership.degraded_reads"] == 0
                assert registry["cluster.repair.copies"] == 0
            return dict(topo.fabric.directory.snapshot()), counters, restored

    def test_armed_but_idle_chaos_is_bit_identical(self):
        assert self._run(chaos=False) == self._run(chaos=True)


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    crash_node=st.integers(min_value=0, max_value=3),
    mode=st.sampled_from(["fail-stop", "power-loss"]),
)
def test_repair_never_drops_below_pre_crash_durability(seed, crash_node, mode):
    """Property: after any single-node crash plus an anti-entropy pass,
    every checkpoint durable before the crash is still restorable with the
    original checksum, and no directory entry sits below replica_factor."""
    with make_topology(chaos_config(num_nodes=4)) as topo:
        sessions = [topo.service.connect(f"c{i}") for i in range(4)]
        sums = {}
        for i, session in enumerate(sessions):
            buf = session.engine.device.alloc_buffer(16 * MiB)
            buf.fill_random(make_rng(seed + i, "durability-prop"))
            sums[i] = buf.checksum()
            session.submit(i, buf)
        for engine in topo.engines:
            engine.wait_for_flushes(timeout=600.0)
        fabric = topo.fabric
        durable_before = {
            i
            for i in sums
            if fabric.directory.holders((sessions[i].engine.process_id, i))
            or topo.cluster.pfs.contains((sessions[i].engine.process_id, i))
        }
        fabric.membership.crash(crash_node, mode)
        fabric.repairer.run()
        factor = topo.config.cluster.replica_factor
        for key, holders in fabric.directory.snapshot():
            assert len(holders) >= factor
            assert crash_node not in holders
        for i in durable_before:
            target = next(e for e in topo.engines if not e.crashed.is_set())
            out = target.device.alloc_buffer(16 * MiB)
            sessions[i].restore(i, out, engine=target)
            assert out.checksum() == sums[i]
