"""The analysis package: DAG reconstruction, attribution, SLOs, diffing.

Unit tests drive :mod:`repro.analysis` with hand-built events where the
right answer is arithmetic; the end-to-end tests run a real serialized
workload with causal tracing on and check the paper-level properties —
every operation ≥95 % attributed, zero orphan spans, restores parented to
the checkpoints that produced their data — and that ``diff_reports``
localizes an injected SSD slowdown to the ``ssd × transfer`` cell.

The end-to-end runs use a 0.05 time scale (like the contention benchmark):
wall-clock jitter feeds the virtual clock at ``wall / time_scale`` nominal
seconds, and the diff assertions compare nominal transfer times that must
dominate that noise floor.
"""

import dataclasses

from repro.analysis.attribution import attribute_dag, attribute_op
from repro.analysis.dag import build_dag
from repro.analysis.report import analyze_events, diff_reports, render_diff, render_report
from repro.analysis.slo import evaluate_dag
from repro.config import (
    AnalysisConfig,
    CacheConfig,
    HardwareSpec,
    RuntimeConfig,
    ScaleModel,
    SloConfig,
)
from repro.core.engine import ScoreEngine
from repro.telemetry.bus import TraceEvent
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import KiB, MiB


def ev(name, ts, dur, op_id, category, phase="X", parent_id=None, track="t", **args):
    return TraceEvent(
        name=name,
        track=track,
        ts=ts,
        phase=phase,
        dur=dur,
        args=args,
        op_id=op_id,
        parent_id=parent_id,
        category=category,
    )


# -- DAG reconstruction -------------------------------------------------------
def test_build_dag_groups_and_links():
    events = [
        ev("copy-in", 0.0, 1.0, "c0:1", "transfer"),
        ev("d2h", 1.0, 0.5, "c0:1", "transfer"),
        ev("promote", 5.0, 1.0, "r0:1", "transfer", parent_id="c0:1"),
        ev("hint-wait", 4.0, 0.5, "f0:2", "queue", parent_id="c0:2"),
    ]
    dag = build_dag(events)
    assert sorted(dag.ops) == ["c0:1", "f0:2", "r0:1"]
    assert not dag.orphans
    ckpt = dag.ops["c0:1"]
    assert (ckpt.kind, ckpt.pid, ckpt.ckpt) == ("checkpoint", 0, 1)
    assert len(ckpt.events) == 2
    assert dag.ops["r0:1"].parent_id == "c0:1"
    assert ckpt.children == ["r0:1"]
    # f0:2's parent checkpoint is not in the trace window: it is a root.
    roots = {op.op_id for op in dag.roots()}
    assert roots == {"c0:1", "f0:2"}


def test_build_dag_collects_orphans():
    events = [
        ev("copy-in", 0.0, 1.0, "c0:1", "transfer"),
        # A category with no op id: the emission bug the CI gate hunts.
        ev("stray", 1.0, 0.5, None, "transfer"),
        # A malformed op id.
        ev("bad", 2.0, 0.5, "zz", "queue"),
        # Untagged events are simply not part of any DAG — not orphans.
        ev("evict-window", 3.0, 0.0, None, None, phase="i"),
    ]
    dag = build_dag(events)
    assert len(dag.orphans) == 2
    assert {e.name for e in dag.orphans} == {"stray", "bad"}
    assert sorted(dag.ops) == ["c0:1"]


def test_op_window_ignores_late_instants():
    events = [
        ev("copy-in", 0.0, 1.0, "c0:1", "transfer"),
        # The extent's eviction fires long after the op finished; it must
        # not stretch the window (the gap would be nobody's time).
        ev("evict", 50.0, 0.0, "c0:1", None, phase="i"),
    ]
    op = build_dag(events).ops["c0:1"]
    assert op.end == 1.0
    assert op.wall == 1.0


# -- attribution sweep --------------------------------------------------------
def test_attribute_op_innermost_wins():
    # A retry backoff nested inside a transfer: the inner span owns its
    # interval, the container keeps the rest.
    events = [
        ev("put", 0.0, 10.0, "c0:1", "transfer", tier="ssd"),
        ev("backoff", 4.0, 2.0, "c0:1", "retry"),
    ]
    attr = attribute_op(build_dag(events).ops["c0:1"])
    assert attr.by_category["transfer"] == 8.0
    assert attr.by_category["retry"] == 2.0
    assert attr.coverage == 1.0
    assert [s.name for s in attr.critical_path] == ["put", "backoff", "put"]
    assert attr.by_tier_category[("ssd", "transfer")] == 8.0
    assert attr.by_tier_category[("-", "retry")] == 2.0


def test_attribute_op_same_start_prefers_higher_priority():
    # Both spans open at t=0: priority breaks the tie (transfer > queue),
    # the wait keeps only its uncovered tail.
    events = [
        ev("wait", 0.0, 10.0, "c0:1", "queue"),
        ev("copy", 0.0, 4.0, "c0:1", "transfer"),
    ]
    attr = attribute_op(build_dag(events).ops["c0:1"])
    assert attr.by_category["transfer"] == 4.0
    assert attr.by_category["queue"] == 6.0


def test_attribute_op_reports_uncovered_gap():
    events = [
        ev("a", 0.0, 1.0, "c0:1", "transfer"),
        ev("b", 9.0, 1.0, "c0:1", "transfer"),
    ]
    attr = attribute_op(build_dag(events).ops["c0:1"])
    assert attr.wall == 10.0
    assert attr.covered == 2.0
    assert not attr.complete


def test_attribute_dag_stats_and_invariant():
    events = [
        ev("a", 0.0, 1.0, "c0:1", "transfer"),
        ev("b", 0.0, 2.0, "r0:1", "queue", parent_id="c0:1"),
    ]
    attr = attribute_dag(build_dag(events))
    stats = attr.coverage_stats()
    assert stats["ops"] == 2
    assert stats["min"] == 1.0
    assert not stats["violations"]
    assert stats["orphans"] == 0
    assert attr.complete()
    bad = attribute_dag(build_dag(events + [ev("stray", 0.0, 1.0, None, "queue")]))
    assert not bad.complete()


# -- end-to-end scenario ------------------------------------------------------
#: 0.05 time scale: nominal SSD transfer times (45 ms per 256 MiB leg at
#: 5.5 GiB/s) sit well above the wake-up-jitter noise floor.
ANALYSIS_SCALE = ScaleModel(data_scale=512 * KiB, time_scale=0.05, alignment=512 * KiB)
SNAPSHOT = 256 * MiB
VERSIONS = 8
#: Targets every op breaches, so live slo-breach/slo-burn emission fires.
TIGHT_SLO = SloConfig(
    durability_target_s=0.001,
    restore_target_s=0.001,
    burn_rate_threshold=0.1,
    window_s=1e6,
)

_EVENT_CACHE = {}


def scenario_events(slow=False):
    """Serialized checkpoints + cold reverse restores, causal tracing on.

    ``slow=True`` halves the SSD read/write bandwidth — the injected
    regression the diff test must localize.  Results are memoized: the
    module's tests share two runs.
    """
    if slow in _EVENT_CACHE:
        return _EVENT_CACHE[slow]
    hw = HardwareSpec()
    if slow:
        hw = dataclasses.replace(
            hw,
            ssd_write_bandwidth=hw.ssd_write_bandwidth / 2,
            ssd_read_bandwidth=hw.ssd_read_bandwidth / 2,
        )
    cfg = RuntimeConfig(
        scale=ANALYSIS_SCALE,
        # Two GPU + two host slots: most of the history lives only on the
        # SSD by restore time, so reverse restores are cold SSD promotions.
        cache=CacheConfig(gpu_cache_size=2 * SNAPSHOT, host_cache_size=2 * SNAPSHOT),
        charge_allocation_cost=False,
        processes_per_node=1,
        telemetry=True,
        hardware=hw,
        analysis=AnalysisConfig(enabled=True, slo=TIGHT_SLO),
    )
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx) as engine:
            for v in range(VERSIONS):
                buf = ctx.device.alloc_buffer(SNAPSHOT)
                buf.fill_random(make_rng(v, "analysis"))
                engine.checkpoint(v, buf)
                engine.wait_for_flushes(timeout=600.0)
            out = ctx.device.alloc_buffer(SNAPSHOT)
            for v in reversed(range(VERSIONS)):
                engine.restore(v, out)
        events = cluster.telemetry.bus.snapshot()
    _EVENT_CACHE[slow] = events
    return events


def test_scenario_meets_accounting_invariant():
    dag = build_dag(scenario_events())
    attr = attribute_dag(dag)
    stats = attr.coverage_stats()
    assert stats["orphans"] == 0
    assert stats["violations"] == []
    assert stats["min"] >= 0.95
    assert attr.complete()


def test_scenario_dag_shape():
    dag = build_dag(scenario_events())
    checkpoints = dag.by_kind("checkpoint")
    restores = dag.by_kind("restore")
    assert [op.ckpt for op in checkpoints] == list(range(VERSIONS))
    assert sorted(op.ckpt for op in restores) == list(range(VERSIONS))
    # Every checkpoint reached the SSD (the cascade ran to quiescence).
    assert all(op.durable_at() is not None for op in checkpoints)
    for op in restores:
        assert op.parent_id == f"c0:{op.ckpt}"
        assert op.parent_id in dag.ops
        assert op.wall > 0


def test_scenario_live_slo_emission():
    events = scenario_events()
    names = {e.name for e in events}
    assert "slo-breach" in names  # the tight targets are breached live...
    assert "slo-burn" in names  # ...and the burn-rate alert fired
    breached_slos = {e.args["slo"] for e in events if e.name == "slo-breach"}
    assert breached_slos == {"durability", "restore"}


def test_evaluate_dag_replays_slo_post_hoc():
    dag = build_dag(scenario_events())
    tight = evaluate_dag(dag, TIGHT_SLO)
    assert tight.durability.violations == VERSIONS
    assert tight.restore.violations == VERSIONS
    assert tight.durability.alerts >= 1
    assert tight.restore.burn_rate() > TIGHT_SLO.burn_rate_threshold
    generous = evaluate_dag(dag, SloConfig(durability_target_s=1e6, restore_target_s=1e6))
    assert generous.durability.violations == 0
    assert generous.restore.violations == 0
    assert generous.durability.alerts == 0


def test_report_renders_and_serializes():
    import json

    report = analyze_events(scenario_events(), slo=TIGHT_SLO)
    assert report["ops"] == {"checkpoint": VERSIONS, "restore": VERSIONS, "prefetch": 0}
    assert report["attributed_s"] > 0
    assert report["accounting"]["orphans"] == 0
    json.dumps(report)  # the CLI/benchmarks write it verbatim
    text = render_report(report)
    assert "time by category" in text
    assert "transfer" in text


def test_diff_localizes_ssd_slowdown():
    base = analyze_events(scenario_events(slow=False))
    slow = analyze_events(scenario_events(slow=True))
    diff = diff_reports(base, slow)
    cells = {(c["tier"], c["category"]): c for c in diff["cells"]}
    ssd = cells[("ssd", "transfer")]
    # Halved bandwidth ≈ doubled SSD transfer time; jitter erodes a little.
    assert ssd["delta_s"] > 0
    assert ssd["ratio"] is not None and ssd["ratio"] > 1.4
    transfer_cells = [c for c in diff["cells"] if c["category"] == "transfer"]
    top = max(transfer_cells, key=lambda c: c["delta_s"])
    assert (top["tier"], top["category"]) == ("ssd", "transfer")
    text = render_diff(diff)
    assert "largest regression" in text


# -- across the fabric ------------------------------------------------------------
def test_cross_node_restore_is_attributed_to_drive_fabric_and_pcie():
    """The restore's op crosses the node boundary: one restore served from a
    peer's SSD is ≥ 95 % accounted with no orphan, and its time is split
    between the read leg — the holder's drive, the fabric crossed alongside
    it — and PCIe, whose transfer spans overlap, being stages of one
    pipeline."""
    from repro.cluster.topology import ClusterTopology
    from repro.config import ClusterConfig

    cfg = RuntimeConfig(
        scale=ScaleModel(data_scale=512 * KiB, time_scale=0.5, alignment=512 * KiB),
        cache=CacheConfig(gpu_cache_size=2 * SNAPSHOT, host_cache_size=2 * SNAPSHOT),
        charge_allocation_cost=False,
        num_nodes=3,
        processes_per_node=1,
        telemetry=True,
        cluster=ClusterConfig(enabled=True),
        analysis=AnalysisConfig(enabled=True),
    )
    with ClusterTopology(cfg, engine_kwargs={"flush_to_pfs": True}) as topo:
        session = topo.service.connect("c0")
        buf = session.engine.device.alloc_buffer(SNAPSHOT)
        buf.fill_random(make_rng(0, "analysis-cluster"))
        session.submit(0, buf)
        for engine in topo.engines:
            engine.wait_for_flushes(timeout=600.0)
        reader = topo.engines[2]  # holds no replica (factor 2)
        out = reader.device.alloc_buffer(SNAPSHOT)
        session.restore(0, out, engine=reader)
        assert out.checksum() == buf.checksum()
        events = topo.telemetry.bus.snapshot()
    dag = build_dag(events)
    assert not dag.orphans
    attr = attribute_dag(dag)
    # (The adopted record's FSM edges still sit in a span-less ``c<reader>:0``
    # op of their own — ROADMAP item 9 — so the DAG-wide gate is not asked.)
    assert attr.per_op[f"c{session.engine.process_id}:0"].complete
    restore = attr.per_op[f"r{reader.process_id}:0"]
    assert restore.coverage >= 0.95
    tiers = {tier for (tier, category) in restore.by_tier_category if category == "transfer"}
    assert {"ssd", "pcie"} <= tiers and "fabric" not in tiers  # inside the drive's leg
    spans = {
        tier: [s for s in restore.op.spans() if s.name.endswith("-chunk") and s.args["tier"] == tier]
        for tier in ("ssd", "pcie")
    }
    assert {s.name for s in spans["ssd"]} == {"read-chunk"}
    assert {s.name for s in spans["pcie"]} == {"h2d-chunk"}
    # PCIe overlaps the drive's next chunks.
    assert any(
        a.ts < b.ts + b.dur and b.ts < a.ts + a.dur for a in spans["pcie"] for b in spans["ssd"]
    )
