"""Checkpoint service front-end: sessions, admission, placement, tagging."""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro.analysis.report import analyze_events, render_report
from repro.cluster.service import RPC_LATENCY_S
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig
from repro.errors import CheckpointNotFound, LifecycleError
from repro.telemetry.exporters import chrome_trace, read_jsonl, write_jsonl
from repro.util.rng import make_rng
from repro.util.units import MiB
from tests.conftest import start_runners, tiny_config

CKPT = 64 * MiB


def service_config(num_nodes=2, processes_per_node=1, telemetry=False, **cluster_kw):
    return tiny_config(
        num_nodes=num_nodes,
        processes_per_node=processes_per_node,
        telemetry=telemetry,
        cluster=ClusterConfig(enabled=True, **cluster_kw),
    )


def make_topology(config, **engine_kw):
    engine_kw.setdefault("flush_to_pfs", True)
    return ClusterTopology(config, engine_kwargs=engine_kw)


def fill(engine, size=CKPT, seed=5):
    buf = engine.device.alloc_buffer(size)
    buf.fill_random(make_rng(seed, "service-test"))
    return buf


class TestSessions:
    def test_connect_is_idempotent_and_round_robin(self):
        with make_topology(service_config(num_nodes=2)) as topo:
            a = topo.service.connect("a")
            b = topo.service.connect("b")
            assert topo.service.connect("a") is a
            assert a.engine is topo.engines[0]
            assert b.engine is topo.engines[1]
            # Third client wraps around the engine ring.
            assert topo.service.connect("c").engine is topo.engines[0]

    def test_every_connect_gets_a_session(self):
        """The service refuses no client: 65 connects (one past the session
        cap the service used to have) all open a session."""
        with make_topology(service_config(num_nodes=2)) as topo:
            sessions = [topo.service.connect(f"c{i}") for i in range(65)]
            assert len({id(session) for session in sessions}) == 65
            assert topo.service.stats()["sessions"] == 65
            assert sessions[-1].engine is topo.engines[0]  # still round-robin


class TestRpcSemantics:
    def test_duplicate_submit_is_a_lifecycle_error(self):
        cfg = service_config(num_nodes=1, replica_factor=1)
        with make_topology(cfg) as topo:
            session = topo.service.connect("c0")
            session.submit(0, fill(session.engine))
            with pytest.raises(LifecycleError):
                session.submit(0, fill(session.engine))

    def test_restore_of_unknown_checkpoint_raises(self):
        cfg = service_config(num_nodes=1, replica_factor=1)
        with make_topology(cfg) as topo:
            session = topo.service.connect("c0")
            out = session.engine.device.alloc_buffer(CKPT)
            with pytest.raises(CheckpointNotFound):
                session.restore(404, out)
            with pytest.raises(CheckpointNotFound):
                session.query(404)

    def test_cross_node_restore_through_service_verifies(self):
        with make_topology(service_config(num_nodes=2)) as topo:
            session = topo.service.connect("c0")
            buf = fill(session.engine)
            want = buf.checksum()
            session.submit(0, buf)
            for engine in topo.engines:
                engine.wait_for_flushes(timeout=600.0)
            target = topo.engines[1]
            out = target.device.alloc_buffer(CKPT)
            session.restore(0, out, engine=target)
            assert out.checksum() == want
            # The adopted record points back at its home process.
            record = target.catalog.maybe_get(0)
            assert record is not None
            assert record.home_pid == session.engine.process_id

    def test_query_reports_placement_and_holders(self):
        with make_topology(service_config(num_nodes=3)) as topo:
            session = topo.service.connect("c0")
            session.submit(0, fill(session.engine))
            for engine in topo.engines:
                engine.wait_for_flushes(timeout=600.0)
            info = session.query(0)
            assert info["home_pid"] == session.engine.process_id
            assert info["home_node"] == session.engine.node_id
            assert info["durable_level"] == "PFS"
            assert info["ssd_holders"] == [0, 1]

    def test_rpc_hop_charges_virtual_latency(self, monkeypatch):
        cfg = service_config(num_nodes=1, replica_factor=1)
        with make_topology(cfg) as topo:
            session = topo.service.connect("c0")
            clock = topo.cluster.clock
            sleep, caller, slept = clock.sleep, threading.get_ident(), []

            def recording_sleep(seconds, *args, **kwargs):
                if threading.get_ident() == caller:
                    slept.append(seconds)
                return sleep(seconds, *args, **kwargs)

            monkeypatch.setattr(clock, "sleep", recording_sleep)
            with pytest.raises(CheckpointNotFound):
                session.query(0)
            # One RPC, one latency charge on the virtual clock.
            assert slept == [RPC_LATENCY_S]


class TestNodeTagging:
    def _traced_topology(self):
        topo = make_topology(service_config(num_nodes=2, telemetry=True))
        session = topo.service.connect("c0")
        session.submit(0, fill(session.engine))
        for engine in topo.engines:
            engine.wait_for_flushes(timeout=600.0)
        out = topo.engines[1].device.alloc_buffer(CKPT)
        session.restore(0, out, engine=topo.engines[1])
        return topo

    def test_bus_stamps_node_and_engine_ids(self):
        with self._traced_topology() as topo:
            events = topo.telemetry.bus.snapshot()
            tagged = [ev for ev in events if ev.node_id is not None]
            assert tagged, "no events picked up a node binding"
            # Engine tracks carry both ids; each node appears.
            assert {ev.node_id for ev in tagged} == {0, 1}
            engine_tagged = [ev for ev in tagged if ev.engine_id is not None]
            assert {ev.engine_id for ev in engine_tagged} == {
                engine.process_id for engine in topo.engines
            }

    def test_jsonl_roundtrip_preserves_node_ids(self):
        with self._traced_topology() as topo:
            events = topo.telemetry.bus.snapshot()
        sink = io.StringIO()
        write_jsonl(sink, events)
        sink.seek(0)
        loaded = read_jsonl(sink)
        assert [(ev.node_id, ev.engine_id) for ev in loaded] == [
            (ev.node_id, ev.engine_id) for ev in events
        ]

    def test_chrome_trace_splits_cluster_lanes_per_node(self):
        with self._traced_topology() as topo:
            trace = chrome_trace(topo.telemetry.bus)
        names = {
            ev["args"]["name"]
            for ev in trace["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "process_name"
        }
        assert "node0" in names and "node1" in names

    def test_analyze_report_groups_per_node(self):
        with self._traced_topology() as topo:
            report = analyze_events(topo.telemetry.bus.snapshot())
        assert set(report["nodes"]) == {"0", "1"}
        for entry in report["nodes"].values():
            assert entry["events"] > 0
        rendered = render_report(report)
        assert "per-node activity:" in rendered

    def test_single_node_reports_stay_untagged(self):
        cfg = tiny_config(telemetry=True)
        with make_topology(cfg) as topo:
            session_engine = topo.engines[0]
            buf = fill(session_engine)
            session_engine.checkpoint(0, buf)
            session_engine.wait_for_flushes(timeout=600.0)
            events = topo.telemetry.bus.snapshot()
            assert all(ev.node_id is None for ev in events)
            report = analyze_events(events)
            assert "nodes" not in report


class TestDisconnect:
    def test_disconnect_poisons_the_stale_session(self):
        with make_topology(service_config(num_nodes=2)) as topo:
            session = topo.service.connect("c0")
            session.submit(0, fill(session.engine))
            for engine in topo.engines:
                engine.wait_for_flushes(timeout=600.0)
            topo.service.disconnect("c0")
            with pytest.raises(LifecycleError):
                session.query(0)
            with pytest.raises(LifecycleError):
                session.submit(1, fill(topo.engines[0]))
            out = topo.engines[0].device.alloc_buffer(CKPT)
            with pytest.raises(LifecycleError):
                session.restore(0, out)
            # Reconnecting the same client id yields a fresh, working session.
            fresh = topo.service.connect("c0")
            assert fresh is not session
            fresh.restore(0, out)

    def test_disconnect_drains_inflight_admissions(self):
        with make_topology(service_config(num_nodes=1, replica_factor=1)) as topo:
            clock = topo.cluster.clock
            session = topo.service.connect("c0")
            session._admit()  # an RPC caught mid-flight
            done = clock.event()

            def drain():
                topo.service.disconnect("c0")
                done.set()

            (t,) = start_runners(clock, (drain,))
            assert not done.wait(0.1), "disconnect returned with an RPC in flight"
            session._release()
            clock.join(t)
            assert done.is_set()

    def test_disconnect_of_unknown_client_is_a_noop(self):
        with make_topology(service_config(num_nodes=1, replica_factor=1)) as topo:
            topo.service.disconnect("never-connected")


class TestRestoreMany:
    def test_partial_failure_reports_per_item_results(self):
        with make_topology(service_config(num_nodes=2)) as topo:
            session = topo.service.connect("c0")
            buf = fill(session.engine)
            want = buf.checksum()
            session.submit(0, buf)
            for engine in topo.engines:
                engine.wait_for_flushes(timeout=600.0)
            good = topo.engines[1].device.alloc_buffer(CKPT)
            bad = topo.engines[1].device.alloc_buffer(CKPT)
            results = topo.service.restore_many(
                [
                    (session, 0, good, topo.engines[1]),
                    (session, 404, bad, topo.engines[1]),
                ]
            )
            assert [r.ckpt_id for r in results] == [0, 404]
            assert results[0].ok and results[0].latency_s > 0
            assert results[0].error is None
            assert not results[1].ok and results[1].latency_s is None
            assert isinstance(results[1].error, CheckpointNotFound)
            # The failed sibling never masked the successful restore.
            assert good.checksum() == want

    def test_a_batch_past_the_old_queue_depth_all_succeeds(self):
        """17 handlers in flight at once on one session (one past the
        per-session depth the service used to have): every one is admitted
        and restores its checkpoint."""
        count, size = 17, 8 * MiB
        with make_topology(service_config(num_nodes=1, replica_factor=1)) as topo:
            clock = topo.cluster.clock
            session = topo.service.connect("c0")
            engine = session.engine
            sums = []
            for ckpt in range(count):
                buf = fill(engine, size=size, seed=ckpt)
                sums.append(buf.checksum())
                session.submit(ckpt, buf)
            engine.wait_for_flushes(timeout=600.0)
            # Hold every handler inside its restore until all are in flight.
            gate, entered, real_restore = clock.event(), [], engine.restore

            def held_restore(ckpt_id, buffer):
                entered.append(ckpt_id)
                gate.wait()
                return real_restore(ckpt_id, buffer)

            engine.restore = held_restore
            outs = [engine.device.alloc_buffer(size) for _ in range(count)]
            items = [(session, ckpt, outs[ckpt], None) for ckpt in range(count)]
            results = []
            (thread,) = start_runners(
                clock, (lambda: results.extend(topo.service.restore_many(items)),)
            )
            deadline = time.perf_counter() + 5.0
            while len(entered) < count and time.perf_counter() < deadline:
                time.sleep(0.005)
            in_flight = len(entered)
            gate.set()
            clock.join(thread)
            del engine.restore
            assert in_flight == count
            assert [r.ckpt_id for r in results] == list(range(count))
            assert all(r.ok for r in results), [r.error for r in results if not r.ok]
            assert [out.checksum() for out in outs] == sums


class TestStats:
    def test_stats_counts_sessions_and_checkpoints(self):
        with make_topology(service_config(num_nodes=2)) as topo:
            s0 = topo.service.connect("c0")
            topo.service.connect("c1")
            s0.submit(0, fill(s0.engine))
            for engine in topo.engines:
                engine.wait_for_flushes(timeout=600.0)
            stats = topo.service.stats()
            assert stats == {
                "sessions": 2,
                "checkpoints": 1,
                "engines": 2,
                "failovers": 0,
                "replays_skipped": 0,
            }


def test_service_json_query_is_serialisable():
    with make_topology(service_config(num_nodes=2)) as topo:
        session = topo.service.connect("c0")
        session.submit(0, fill(session.engine))
        for engine in topo.engines:
            engine.wait_for_flushes(timeout=600.0)
        json.dumps(session.query(0))
