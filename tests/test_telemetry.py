"""Unit tests for the telemetry subsystem (bus, metrics, exporters)."""

import io
import json
from pathlib import Path

import pytest

from repro.clock import VirtualClock
from repro.core.lifecycle import CkptState
from repro.metrics.recorder import OpEvent, OpKind, Recorder
from repro.telemetry import (
    NULL_SPAN,
    MetricsRegistry,
    Telemetry,
    TraceBus,
    chrome_trace,
    events_by_track,
    filter_events,
    render_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.bus import TraceEvent
from repro.telemetry.causal import OpTrace

from tests.conftest import start_runners

#: the scripted sequence's exports, recorded from the bus as it was before
#: events became rows (``scripted_exports``): any change to what a trace
#: holds or how it is written shows up as a byte difference here.
GOLDEN = Path(__file__).parent / "golden"


class FakeClock:
    """Minimal clock: tests advance time explicitly."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


def make_bus(enabled=True, capacity=64):
    clock = FakeClock()
    return TraceBus(clock, enabled=enabled, capacity=capacity), clock


class TestTraceBus:
    def test_instant_records_event(self):
        bus, clock = make_bus()
        clock.t = 1.5
        bus.instant("evict", "p0-gpu", ckpt=3, forced=False)
        (event,) = bus.snapshot()
        assert event.name == "evict"
        assert event.track == "p0-gpu"
        assert event.ts == 1.5
        assert event.phase == "i"
        assert event.args == {"ckpt": 3, "forced": False}

    def test_span_records_complete_event_with_duration(self):
        bus, clock = make_bus()
        clock.t = 2.0
        with bus.span("d2h", "p0-flush-d2h", ckpt=7) as span:
            clock.t = 2.25
            span.add(abandoned=False)
        (event,) = bus.snapshot()
        assert event.phase == "X"
        assert event.ts == 2.0
        assert event.dur == pytest.approx(0.25)
        assert event.args == {"ckpt": 7, "abandoned": False}

    def test_ring_overflow_drops_oldest(self):
        bus, _ = make_bus(capacity=8)
        for i in range(20):
            bus.instant("e", "t", seq=i)
        assert len(bus) == 8
        assert bus.emitted == 20
        assert bus.dropped == 12
        # The retained window is the newest events, oldest first.
        assert [e.args["seq"] for e in bus.snapshot()] == list(range(12, 20))

    def test_disabled_bus_emits_nothing(self):
        bus, clock = make_bus(enabled=False)
        bus.instant("evict", "p0-gpu", ckpt=1)
        with bus.span("d2h", "p0-flush-d2h") as span:
            clock.t = 5.0
            span.add(bytes=128)
        assert len(bus) == 0
        assert bus.emitted == 0
        assert bus.dropped == 0
        assert bus.snapshot() == []

    def test_disabled_span_is_shared_null_object(self):
        bus, _ = make_bus(enabled=False)
        assert bus.span("a", "t") is NULL_SPAN
        assert bus.span("b", "t") is NULL_SPAN

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceBus(FakeClock(), capacity=0)

    def test_clear_resets_counters(self):
        bus, _ = make_bus(capacity=4)
        for _ in range(10):
            bus.instant("e", "t")
        bus.clear()
        assert len(bus) == 0
        assert bus.emitted == 0
        assert bus.dropped == 0

    def test_tracks_first_seen_order(self):
        bus, _ = make_bus()
        bus.instant("a", "p1-app")
        bus.instant("b", "pfs")
        bus.instant("c", "p1-app")
        assert bus.tracks() == ["p1-app", "pfs"]

    def test_track_naming_convention(self):
        assert TraceBus.track(3, "gpu") == "p3-gpu"
        assert TraceBus.track(None, "pfs") == "pfs"


def scripted_bus() -> TraceBus:
    """One fixed emission sequence through every way onto the bus: instants,
    spans (with args added while open), back-dated completes, an op's
    stages, fills and instants, and track bindings made mid-sequence."""
    clock = FakeClock()
    bus = TraceBus(clock, capacity=64)
    clock.t = 0.5
    bus.instant(
        "fsm", "p0-lifecycle", op_id="c0:1", ckpt=1, level="GPU",
        **{"from": CkptState.INIT.value, "to": CkptState.WRITE_COMPLETE.value},
    )
    with bus.span("d2h", "p0-flush-d2h", op_id="c0:1", category="transfer", ckpt=1) as span:
        clock.t = 0.75
        span.add(bytes=1 << 27, abandoned=False)
    bus.complete(
        "sched-wait", "sched-d2h", 0.625, 0.0625, op_id="c0:1", category="queue", cls="CASCADE"
    )
    bus.instant("sched-queue", "sched-d2h", engine=0, cls="CASCADE", depth=2)
    bus.instant("ssd-open", "node0-ssd", key=(0, 1))  # before its track is bound
    op = OpTrace(bus, "r0:1", "p0-app", parent_id="c0:1")
    clock.t = 1.0
    with op.stage("copy-out", "transfer", track="p0-restore", bytes=64) as stage:
        clock.t = 1.25
        stage.add(tier="host")
    op.fill("reserve-wait", category="reserve")  # nothing to fill: no event
    clock.t = 1.5
    op.fill("reserve-wait", category="reserve", track="p0-gpu")
    op.instant("durable", tier="ssd", level="SSD")
    bus.instant(
        "evict-window", "p0-gpu-cache",
        p_score=float("inf"), s_score=0.25, state=CkptState.READ_COMPLETE,
    )
    bus.bind_track("node0-ssd", node_id=0)
    bus.bind_process(1, node_id=1)
    with bus.span("ssd-put", "node0-ssd", key=(0, 1), bytes=4096):
        clock.t = 1.75
    with bus.span("h2f-chunk", "p1-flush-h2f", op_id="c1:2", category="transfer", chunk=0):
        clock.t = 2.0
    bus.complete("wait", "p1-app", 1.75, 0.25, op_id="c1:2", category="queue")
    bus.instant("fsm", "p0-lifecycle", ckpt=2)  # pid 0 has no node: engine id only
    bus.instant("pfs-put", "pfs", bytes=0)  # bound to nothing
    bus.instant("ssd-open", "node0-ssd", key=(0, 2))
    return bus


def scripted_exports(directory: Path) -> dict:
    """``snapshot()``, JSONL and Chrome renderings of :func:`scripted_bus`,
    as text keyed by their golden file's name."""
    bus = scripted_bus()
    registry = MetricsRegistry()
    registry.counter("ops").inc(2)
    jsonl = io.StringIO()
    write_jsonl(jsonl, bus)
    chrome = directory / "bus_contract.trace.json"
    write_chrome_trace(str(chrome), bus, registry)
    return {
        "bus_contract.snapshot.txt": "".join(f"{event!r}\n" for event in bus.snapshot()),
        "bus_contract.events.jsonl": jsonl.getvalue(),
        "bus_contract.trace.json": chrome.read_text(),
    }


class TestBusContract:
    """What recording costs may change; what a trace holds may not."""

    def test_scripted_exports_match_the_golden_files(self, tmp_path):
        for name, text in scripted_exports(tmp_path).items():
            assert text == (GOLDEN / name).read_text(), name

    def test_overflow_drops_the_oldest_and_counts_them(self):
        bus, clock = make_bus(capacity=5)
        for i in range(12):
            clock.t = float(i)
            if i % 2:
                bus.instant("tick", "t", seq=i)
            else:
                bus.complete("tock", "t", clock.t, 0.5, seq=i)
        assert (bus.emitted, len(bus), bus.dropped) == (12, 5, 7)
        assert [(e.name, e.args["seq"], e.ts) for e in bus.snapshot()] == [
            ("tick" if i % 2 else "tock", i, float(i)) for i in range(7, 12)
        ]

    def test_a_binding_stamps_only_events_emitted_after_it(self):
        bus, _ = make_bus()
        bus.instant("a", "node3-ssd")
        bus.instant("a", "p4-app")
        bus.bind_track("node3-ssd", node_id=3)
        bus.bind_process(4, node_id=2)
        bus.instant("b", "node3-ssd")
        bus.instant("b", "p4-app")
        bus.instant("b", "p5-app")
        stamps = [(e.name, e.track, e.node_id, e.engine_id) for e in bus.snapshot()]
        assert stamps == [
            ("a", "node3-ssd", None, None),
            ("a", "p4-app", None, None),
            ("b", "node3-ssd", 3, None),
            ("b", "p4-app", 2, 4),
            ("b", "p5-app", None, 5),
        ]

    def test_concurrent_emitters_lose_nothing_below_capacity(self):
        threads, each = 4, 500
        clock = VirtualClock(0.001)
        bus = TraceBus(clock, capacity=threads * each)

        def emit(tid):
            for i in range(each):
                if i % 2:
                    bus.instant("tick", f"p{tid}-app", i=i)
                else:
                    bus.complete("tock", f"p{tid}-app", clock.now(), 0.0, i=i)

        for thread in start_runners(clock, *[(emit, t) for t in range(threads)]):
            clock.join(thread)
        assert bus.emitted == len(bus) == threads * each
        assert bus.dropped == 0
        seen = {(e.track, e.args["i"]) for e in bus.snapshot()}
        assert len(seen) == threads * each


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        c = registry.counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_gauge_set_and_add(self):
        g = MetricsRegistry().gauge("depth")
        g.set(4)
        g.add(-1)
        assert g.value == 3

    def test_histogram_snapshot(self):
        h = MetricsRegistry().histogram("wait", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.55)
        assert snap["min"] == 0.05
        assert snap["max"] == 5.0
        assert snap["buckets"] == [(0.1, 1), (1.0, 1), (float("inf"), 1)]

    def test_snapshot_is_sorted_and_plain(self):
        registry = MetricsRegistry()
        registry.counter("b.ops").inc(2)
        registry.gauge("a.depth").set(7)
        snap = registry.snapshot()
        assert list(snap) == ["a.depth", "b.ops"]
        json.dumps(snap, default=str)  # JSON-serialisable

    def test_merge_adds_counters_and_keeps_max_gauge(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.counter("ops").inc(3)
        r1.gauge("occ").set(0.5)
        r2.counter("ops").inc(4)
        r2.gauge("occ").set(0.25)
        r1.merge(r2.snapshot())
        assert r1.counter("ops").value == 7
        assert r1.gauge("occ").value == 0.5

    def test_merge_into_empty_reconstructs_histograms(self):
        src = MetricsRegistry()
        h = src.histogram("wait", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(2.0)
        dst = MetricsRegistry()
        dst.merge(src.snapshot())
        assert dst.get("wait").snapshot() == h.snapshot()


def synthetic_events():
    return [
        TraceEvent(name="checkpoint", track="p0-app", ts=0.0, phase="X", dur=0.5),
        TraceEvent(name="fsm", track="p0-lifecycle", ts=0.1, args={"ckpt": 0}),
        TraceEvent(name="d2h", track="p0-flush-d2h", ts=0.2, phase="X", dur=0.1),
        TraceEvent(name="ssd-put", track="node0-ssd", ts=0.3, phase="X", dur=0.2),
        TraceEvent(name="fsm", track="p0-lifecycle", ts=0.4, args={"ckpt": 1}),
        TraceEvent(name="pfs-put", track="pfs", ts=0.5, phase="X", dur=0.3),
    ]


class TestExporters:
    def test_chrome_trace_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("ops").inc(3)
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), synthetic_events(), registry)
        doc = json.loads(path.read_text())  # must be valid JSON end to end
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["metrics"]["ops"] == 3
        events = doc["traceEvents"]
        # Per-process tracks group under their rank, shared ones under the
        # synthetic cluster process.
        names = {
            (e["pid"], e["args"]["name"]) for e in events if e["name"] == "thread_name"
        }
        assert (0, "app") in names
        assert (0, "lifecycle") in names
        assert (0, "flush-d2h") in names
        cluster_pids = {p for p, n in names if n in ("node0-ssd", "pfs")}
        assert len(cluster_pids) == 1
        (cluster_pid,) = cluster_pids
        assert cluster_pid != 0
        # Spans carry microsecond durations; instants are thread-scoped.
        spans = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] > 0 for e in spans)
        instants = [e for e in events if e["ph"] == "i"]
        assert all(e["s"] == "t" for e in instants)

    def test_chrome_trace_per_track_monotonic(self):
        doc = chrome_trace(synthetic_events())
        per_track = {}
        for e in doc["traceEvents"]:
            if e["ph"] in ("X", "i"):
                per_track.setdefault((e["pid"], e["tid"]), []).append(e["ts"])
        assert per_track  # at least one real event per track
        for stamps in per_track.values():
            assert stamps == sorted(stamps)

    def test_write_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        count = write_jsonl(str(path), synthetic_events())
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(synthetic_events())
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["name"] == "checkpoint"
        assert parsed[0]["dur"] == 0.5

    def test_render_summary_lists_metrics(self):
        registry = MetricsRegistry()
        registry.counter("cache.p0-gpu.evictions").inc(5)
        registry.histogram("wait").observe(0.2)
        bus, _ = make_bus()
        bus.instant("e", "t")
        text = render_summary(registry, bus)
        assert "cache.p0-gpu.evictions" in text
        assert "count=1" in text
        assert "1 events retained" in text

    def test_filter_and_group_helpers(self):
        events = synthetic_events()
        assert len(filter_events(events, name="fsm")) == 2
        assert len(filter_events(events, tracks=["pfs"])) == 1
        grouped = events_by_track(events)
        assert [e.ts for e in grouped["p0-lifecycle"]] == [0.1, 0.4]


class TestTelemetryFacade:
    def test_disabled_factory(self):
        t = Telemetry.disabled()
        assert not t.enabled
        assert t.bus.span("a", "t") is NULL_SPAN

    def test_enabled_records(self):
        t = Telemetry(enabled=True)
        t.bus.instant("e", "t")
        assert t.enabled
        assert len(t.bus) == 1


def op(kind, ckpt_id, started_at, blocked=0.5, nominal_bytes=100):
    return OpEvent(
        kind=kind,
        ckpt_id=ckpt_id,
        started_at=started_at,
        blocked=blocked,
        nominal_bytes=nominal_bytes,
    )


class TestRecorderSnapshotMerge:
    def test_snapshot_is_a_copy(self):
        r = Recorder()
        r.record(op(OpKind.CHECKPOINT, 0, 0.0))
        snap = r.snapshot()
        r.record(op(OpKind.CHECKPOINT, 1, 1.0))
        assert len(snap) == 1
        assert len(r.events) == 2

    def test_running_totals_match_events(self):
        r = Recorder()
        r.record(op(OpKind.CHECKPOINT, 0, 0.0, blocked=0.25, nominal_bytes=10))
        r.record(op(OpKind.CHECKPOINT, 1, 1.0, blocked=0.75, nominal_bytes=30))
        r.record(op(OpKind.RESTORE, 0, 2.0, blocked=0.5, nominal_bytes=10))
        assert r.total_blocked(OpKind.CHECKPOINT) == pytest.approx(1.0)
        assert r.total_bytes(OpKind.CHECKPOINT) == 40
        assert r.counts() == {"checkpoint": 2, "restore": 1}
        assert [e.ckpt_id for e in r.of_kind(OpKind.CHECKPOINT)] == [0, 1]

    def test_merge_interleaves_by_start_time(self):
        r1 = Recorder(process_id=0)
        r1.record(op(OpKind.CHECKPOINT, 0, 0.0))
        r1.record(op(OpKind.CHECKPOINT, 2, 2.0))
        r2 = Recorder(process_id=1)
        r2.record(op(OpKind.CHECKPOINT, 1, 1.0, nominal_bytes=7))
        r1.merge(r2)
        assert [e.ckpt_id for e in r1.events] == [0, 1, 2]
        assert r1.total_bytes(OpKind.CHECKPOINT) == 207
        assert r1.counts()["checkpoint"] == 3
        # The source recorder is untouched.
        assert len(r2.events) == 1

    def test_clear_resets_totals(self):
        r = Recorder()
        r.record(op(OpKind.FLUSH, 0, 0.0))
        r.clear()
        assert r.counts() == {}
        assert r.total_bytes(OpKind.FLUSH) == 0
        assert r.snapshot() == []
