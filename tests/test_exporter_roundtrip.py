"""Exporter round-trips: Chrome-trace validity and lossless JSONL re-import.

The analyzer must see the same op DAGs from a saved ``.events.jsonl`` as
from a live bus snapshot (``repro analyze`` accepts both), so
``write_jsonl`` → ``read_jsonl`` must preserve event count, timing, and
causal identity exactly.  The Chrome export must be valid JSON with
non-negative timestamps/durations and the causal fields surfaced as args.
"""

import io
import json

from repro.analysis.dag import build_dag
from repro.telemetry.bus import TraceEvent
from repro.telemetry.exporters import (
    chrome_trace,
    provenance,
    read_jsonl,
    read_meta,
    write_chrome_trace,
    write_jsonl,
)

from tests.test_analysis import scenario_events


def sample_events():
    return [
        TraceEvent(
            name="copy-in",
            track="p0-app",
            ts=0.0,
            phase="X",
            dur=1.5,
            args={"bytes": 1024},
            op_id="c0:1",
            category="transfer",
        ),
        TraceEvent(
            name="promote",
            track="p0-prefetch",
            ts=2.0,
            phase="X",
            dur=0.5,
            args={"tier": "ssd"},
            op_id="f0:1",
            parent_id="c0:1",
            category="transfer",
        ),
        TraceEvent(name="durable", track="p0-app", ts=1.4, op_id="c0:1"),
        # Untagged pre-causal event; args exercise the _json_default path.
        TraceEvent(
            name="evict-window",
            track="p0-gpu-cache",
            ts=3.0,
            args={"score": float("inf")},
        ),
    ]


# -- chrome trace -------------------------------------------------------------
def test_chrome_trace_is_valid_json_with_sane_timing():
    doc = chrome_trace(sample_events())
    text = json.dumps(doc, default=str)
    parsed = json.loads(text)
    assert "traceEvents" in parsed
    entries = [e for e in parsed["traceEvents"] if e["ph"] in ("X", "i")]
    assert len(entries) == len(sample_events())
    for entry in entries:
        assert entry["ts"] >= 0
        if entry["ph"] == "X":
            assert entry["dur"] >= 0
    # Metadata names every track's thread and each pid once.
    assert any(e["name"] == "process_name" for e in parsed["traceEvents"])
    assert sum(e["name"] == "thread_name" for e in parsed["traceEvents"]) == 3


def test_chrome_trace_surfaces_causal_fields_as_args():
    doc = chrome_trace(sample_events())
    by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] in ("X", "i")}
    assert by_name["copy-in"]["args"]["op"] == "c0:1"
    assert by_name["copy-in"]["args"]["cat"] == "transfer"
    assert by_name["promote"]["args"]["parent"] == "c0:1"
    assert "op" not in by_name["evict-window"]["args"]


def test_chrome_trace_timestamps_scale_to_microseconds():
    doc = chrome_trace(sample_events())
    copy = next(e for e in doc["traceEvents"] if e.get("name") == "copy-in")
    assert copy["ts"] == 0.0
    assert copy["dur"] == 1.5e6


# -- jsonl round-trip ---------------------------------------------------------
def test_jsonl_roundtrip_preserves_events():
    events = sample_events()
    buf = io.StringIO()
    assert write_jsonl(buf, events) == len(events)
    back = read_jsonl(io.StringIO(buf.getvalue()))
    assert len(back) == len(events)
    for orig, re in zip(events, back):
        assert (re.name, re.track, re.ts, re.phase, re.dur) == (
            orig.name,
            orig.track,
            orig.ts,
            orig.phase,
            orig.dur,
        )
        assert (re.op_id, re.parent_id, re.category) == (
            orig.op_id,
            orig.parent_id,
            orig.category,
        )


def test_jsonl_omits_causal_keys_when_unset():
    buf = io.StringIO()
    write_jsonl(buf, sample_events())
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    tagged = next(rec for rec in lines if rec["name"] == "copy-in")
    plain = next(rec for rec in lines if rec["name"] == "evict-window")
    assert tagged["op_id"] == "c0:1"
    assert "op_id" not in plain
    assert "parent_id" not in plain
    assert "category" not in plain


def test_jsonl_roundtrip_preserves_dag_shape(tmp_path):
    """A real traced run re-imported from disk yields the identical DAG."""
    events = scenario_events()
    path = tmp_path / "run.events.jsonl"
    write_jsonl(str(path), events)
    back = read_jsonl(str(path))
    assert len(back) == len(events)
    live, filed = build_dag(events), build_dag(back)
    assert sorted(live.ops) == sorted(filed.ops)
    assert len(live.orphans) == len(filed.orphans) == 0
    for op_id, node in live.ops.items():
        other = filed.ops[op_id]
        assert len(other.events) == len(node.events)
        assert other.parent_id == node.parent_id
        assert other.wall == node.wall
        assert sorted(other.children) == sorted(node.children)


# -- provenance stamp -----------------------------------------------------------
STAMP = {"config_hash": "0123456789abcdef", "seed": 9, "git_sha": "a" * 40}


def test_jsonl_stamp_leads_and_round_trips():
    events = sample_events()
    buf = io.StringIO()
    assert write_jsonl(buf, events, meta=STAMP) == len(events)
    first = json.loads(buf.getvalue().splitlines()[0])
    assert first == {"meta": STAMP}
    assert read_meta(io.StringIO(buf.getvalue())) == STAMP
    back = read_jsonl(io.StringIO(buf.getvalue()))  # the stamp is no event
    plain = io.StringIO()
    write_jsonl(plain, events)
    assert back == read_jsonl(io.StringIO(plain.getvalue()))
    assert read_meta(io.StringIO(plain.getvalue())) is None


def test_chrome_stamp_sits_in_other_data(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), sample_events(), meta=STAMP)
    doc = json.loads(path.read_text())
    assert doc["otherData"] == {"meta": STAMP}
    assert "otherData" not in chrome_trace(sample_events())


def test_provenance_hashes_the_config():
    from repro.config import SchedConfig, bench_config

    cfg = bench_config()
    stamp = provenance(cfg, seed=5)
    assert stamp["seed"] == 5
    assert stamp["config_hash"] == provenance(bench_config(), seed=6)["config_hash"]
    other = provenance(cfg.with_(sched=SchedConfig(enabled=True)), seed=5)
    assert other["config_hash"] != stamp["config_hash"]
    assert set(stamp) <= {"config_hash", "seed", "git_sha"}
