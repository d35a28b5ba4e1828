"""End-to-end telemetry: trace a real RTM shot and validate the output.

One small traced run (the CLI's ``quickstart`` workload) is shared by the
whole module; the tests then check the three hard guarantees:

* every recorded FSM transition is legal per ``allowed_transitions``;
* eviction decisions carry their Algorithm-1 scores and window members;
* the exported Chrome trace re-parses with per-track monotonic timestamps.
"""

import json

import pytest

from repro.config import bench_config
from repro.core.lifecycle import CkptState, allowed_transitions
from repro.telemetry.cli import run_trace
from repro.tiers.topology import Cluster
from repro.workloads.multiproc import run_multiprocess_shot


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("traces")
    result = run_trace("quickstart", out_dir=str(out_dir), snapshots=12)
    stamp, *events = [
        json.loads(line)
        for line in open(result["jsonl"])
    ]
    assert stamp == {"meta": result["meta"]}  # the provenance record leads
    return result, events


class TestFsmConformance:
    def test_every_transition_is_legal(self, traced):
        _, events = traced
        fsm = [e for e in events if e["name"] == "fsm"]
        assert fsm, "traced run recorded no lifecycle transitions"
        for e in fsm:
            old = CkptState(e["args"]["from"])
            new = CkptState(e["args"]["to"])
            assert new in allowed_transitions(old), (
                f"illegal transition {old.value} -> {new.value} "
                f"for ckpt {e['args']['ckpt']} on {e['args']['level']}"
            )

    def test_per_instance_chains_are_continuous(self, traced):
        _, events = traced
        chains = {}
        for e in events:
            if e["name"] != "fsm":
                continue
            key = (e["track"], e["args"]["ckpt"], e["args"]["level"])
            chains.setdefault(key, []).append(e["args"])
        assert chains
        for key, transitions in chains.items():
            assert transitions[0]["from"] == CkptState.INIT.value, key
            for prev, cur in zip(transitions, transitions[1:]):
                # Either the chain continues, or the instance was evicted
                # and a fresh generation restarted from INIT.
                assert cur["from"] in (prev["to"], CkptState.INIT.value), key

    def test_both_lifecycle_paths_are_exercised(self, traced):
        _, events = traced
        seen = {
            (e["args"]["from"], e["args"]["to"])
            for e in events
            if e["name"] == "fsm"
        }
        assert ("init", "write_in_progress") in seen  # checkpoint path
        assert ("write_in_progress", "write_complete") in seen
        assert any(new == "consumed" for _, new in seen)  # restore path


class TestEvictionTrace:
    def test_eviction_decisions_carry_scores_and_members(self, traced):
        _, events = traced
        windows = [e for e in events if e["name"] == "evict-window"]
        assert windows, "run too small to trigger evictions"
        for e in windows:
            args = e["args"]
            assert isinstance(args["p_score"], (int, float))
            assert isinstance(args["s_score"], (int, float))
            assert args["bytes"] >= 0
            assert args["members"], "an eviction window must name its victims"
            for member in args["members"]:
                assert {"ckpt", "bytes", "state"} <= set(member)

    def test_every_window_is_followed_by_its_evictions(self, traced):
        _, events = traced
        evicted = [e["args"]["ckpt"] for e in events if e["name"] == "evict"]
        window_members = [
            m["ckpt"]
            for e in events
            if e["name"] == "evict-window"
            for m in e["args"]["members"]
        ]
        assert sorted(evicted) == sorted(window_members)


class TestFlushPrefetchSpans:
    def test_flush_stages_recorded_as_spans(self, traced):
        _, events = traced
        d2h = [e for e in events if e["name"] == "d2h"]
        h2f = [e for e in events if e["name"] == "h2f"]
        assert d2h and h2f
        for e in d2h + h2f:
            assert e["phase"] == "X"
            assert e["dur"] >= 0
            assert e["args"]["bytes"] > 0

    def test_prefetch_promotions_recorded(self, traced):
        _, events = traced
        spans = [e for e in events if e["name"] == "prefetch"]
        assert spans
        assert all(e["track"] == "p0-prefetch" for e in spans)


class TestChromeExport:
    def test_trace_json_reparses_with_monotonic_tracks(self, traced):
        result, _ = traced
        doc = json.load(open(result["trace"]))
        per_track = {}
        for e in doc["traceEvents"]:
            if e["ph"] in ("X", "i"):
                per_track.setdefault((e["pid"], e["tid"]), []).append(e["ts"])
        assert per_track
        for stamps in per_track.values():
            assert stamps == sorted(stamps)

    def test_trace_json_attaches_metrics(self, traced):
        result, _ = traced
        doc = json.load(open(result["trace"]))
        metrics = doc["otherData"]["metrics"]
        assert metrics["engine.checkpoint.ops"] == 12
        assert metrics["tier.ssd.write_ops"] > 0

    def test_summary_written(self, traced):
        result, _ = traced
        text = open(result["summary"]).read()
        assert "engine.restore.ops" in text
        assert "dropped" in text


class TestDisabledTelemetry:
    def test_untraced_run_emits_zero_events_but_live_metrics(self):
        from repro.harness.approaches import make_engine_factory
        from repro.telemetry.cli import _build_specs
        from repro.workloads.patterns import RestoreOrder

        cfg = bench_config(processes_per_node=1)  # telemetry off by default
        specs = _build_specs("quickstart", cfg, 6, 1, RestoreOrder.REVERSE, seed=7)
        with Cluster(cfg) as cluster:
            run_multiprocess_shot(cluster, make_engine_factory("score"), specs)
            assert not cluster.telemetry.enabled
            assert cluster.telemetry.bus.emitted == 0
            assert cluster.telemetry.bus.snapshot() == []
            metrics = cluster.telemetry.registry.snapshot()
        assert metrics["engine.checkpoint.ops"] == 6
        assert metrics["engine.restore.ops"] == 6
