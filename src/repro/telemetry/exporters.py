"""Trace and metrics exporters.

Three renderings of one run's telemetry:

* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome trace-event
  JSON, loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Every bus track becomes one named thread timeline;
  per-process tracks (``p3-flush-d2h``) group under their rank's process,
  cluster-shared tracks (``node0-ssd``, ``pfs``) under a synthetic
  "cluster" process.  Timestamps are nominal **micro**seconds (the format's
  unit), so durations read directly in paper time.
* :func:`write_jsonl` — one JSON object per event, for ad-hoc scripting.
* :func:`render_summary` — a human-readable text digest of the metrics
  registry and bus occupancy.

Both trace files can carry a provenance stamp (:func:`provenance`: the
config hash, the workload seed and the git sha when there is one), so that
two saved runs compared with ``repro analyze --diff`` say what they were:
JSONL writes it as one leading ``{"meta": ...}`` record that
:func:`read_jsonl` skips (:func:`read_meta` reads it), Chrome JSON as
``otherData.meta``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from repro.telemetry.bus import TraceBus, TraceEvent
from repro.telemetry.metrics import MetricsRegistry

#: Synthetic pid for cluster-shared tracks (SSD/PFS stores, fabric links).
CLUSTER_PID = 1_000_000

_TRACK_RE = re.compile(r"^p(\d+)-(.+)$")


def _events_of(source: Union[TraceBus, Iterable[TraceEvent]]) -> List[TraceEvent]:
    if isinstance(source, TraceBus):
        return source.snapshot()
    return list(source)


def _split_track(track: str) -> Tuple[int, str]:
    """(pid, thread name) for a track, following the bus's naming convention."""
    m = _TRACK_RE.match(track)
    if m:
        return int(m.group(1)), m.group(2)
    return CLUSTER_PID, track


def provenance(config, seed: int) -> dict:
    """The stamp of one run's exports: ``config_hash`` (the first 16 hex
    digits of the sha256 of the config's repr, as the ledger hashes its
    inputs), the workload ``seed``, and ``git_sha`` when the source sits in
    a git checkout."""
    meta = {
        "config_hash": hashlib.sha256(repr(config).encode()).hexdigest()[:16],
        "seed": seed,
    }
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return meta
    if done.returncode == 0 and done.stdout.strip():
        meta["git_sha"] = done.stdout.strip()
    return meta


def chrome_trace(
    source: Union[TraceBus, Iterable[TraceEvent]],
    registry: Optional[MetricsRegistry] = None,
    meta: Optional[dict] = None,
) -> dict:
    """Render events (and optionally a metrics snapshot and a
    :func:`provenance` stamp) to the Chrome trace-event JSON object format."""
    events = _events_of(source)
    trace_events: List[dict] = []
    named_pids: Dict[int, None] = {}
    tids: Dict[str, int] = {}

    # Node attribution (cluster runs tag events with node_id): shared tracks
    # split out of the flat "cluster" process into one synthetic process per
    # node, and rank processes are labelled with the node hosting them.
    node_of: Dict[str, int] = {}
    for e in events:
        if e.node_id is not None and e.track not in node_of:
            node_of[e.track] = e.node_id

    def resolve(track: str) -> Tuple[int, str]:
        pid, thread = _split_track(track)
        node = node_of.get(track)
        if pid == CLUSTER_PID and node is not None:
            return CLUSTER_PID + 1 + node, thread
        return pid, thread

    def process_name(pid: int, track: str) -> str:
        if pid == CLUSTER_PID:
            return "cluster"
        if pid > CLUSTER_PID:
            return f"node{pid - CLUSTER_PID - 1}"
        node = node_of.get(track)
        if node is not None:
            return f"node{node} rank {pid}"
        return f"rank {pid}"

    for track in sorted({e.track for e in events}):
        pid, thread = resolve(track)
        tids[track] = len(tids) + 1
        if pid not in named_pids:
            named_pids[pid] = None
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": process_name(pid, track)},
                }
            )
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tids[track],
                "args": {"name": thread},
            }
        )

    # The bus appends spans at *exit*; re-sort by start time so overlapping
    # operations on a shared track (e.g. two streams hitting the SSD) render
    # in timeline order.
    for event in sorted(events, key=lambda e: e.ts):
        pid, _ = resolve(event.track)
        args = event.args
        if event.op_id is not None or event.category is not None:
            args = dict(args)
            if event.op_id is not None:
                args["op"] = event.op_id
            if event.parent_id is not None:
                args["parent"] = event.parent_id
            if event.category is not None:
                args["cat"] = event.category
        entry = {
            "name": event.name,
            "ph": event.phase,
            "ts": event.ts * 1e6,  # nominal seconds -> microseconds
            "pid": pid,
            "tid": tids[event.track],
            "args": args,
        }
        if event.phase == "X":
            entry["dur"] = event.dur * 1e6
        elif event.phase == "i":
            entry["s"] = "t"  # thread-scoped instant
        trace_events.append(entry)

    out: dict = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    other: dict = {}
    if registry is not None:
        other["metrics"] = registry.snapshot()
    if meta is not None:
        other["meta"] = meta
    if other:
        out["otherData"] = other
    return out


def write_chrome_trace(
    path: str,
    source: Union[TraceBus, Iterable[TraceEvent]],
    registry: Optional[MetricsRegistry] = None,
    meta: Optional[dict] = None,
) -> None:
    """Write :func:`chrome_trace` output to ``path`` (open in Perfetto)."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(source, registry, meta), fh, default=_json_default)


def write_jsonl(
    path_or_file: Union[str, TextIO],
    source: Union[TraceBus, Iterable[TraceEvent]],
    meta: Optional[dict] = None,
) -> int:
    """One JSON object per event, after one ``{"meta": ...}`` record when a
    :func:`provenance` stamp is given; returns the number of events written."""
    events = _events_of(source)

    def dump(fh: TextIO) -> None:
        if meta is not None:
            fh.write(json.dumps({"meta": meta}, default=_json_default))
            fh.write("\n")
        for event in events:
            record = {
                "name": event.name,
                "track": event.track,
                "ts": event.ts,
                "phase": event.phase,
                "dur": event.dur,
                "args": event.args,
            }
            # Causal fields only when present, so pre-causal logs and
            # disabled-analysis runs serialise byte-identically.
            if event.op_id is not None:
                record["op_id"] = event.op_id
            if event.parent_id is not None:
                record["parent_id"] = event.parent_id
            if event.category is not None:
                record["category"] = event.category
            # Node attribution likewise only-when-present (cluster runs).
            if event.node_id is not None:
                record["node_id"] = event.node_id
            if event.engine_id is not None:
                record["engine_id"] = event.engine_id
            fh.write(json.dumps(record, default=_json_default))
            fh.write("\n")

    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as fh:
            dump(fh)
    else:
        dump(path_or_file)
    return len(events)


def _records(path_or_file: Union[str, TextIO]) -> Iterator[dict]:
    """The JSON records of a JSONL path or open file, blank lines skipped."""
    if isinstance(path_or_file, str):
        with open(path_or_file) as fh:
            yield from _records(fh)
        return
    for line in path_or_file:
        if line.strip():
            yield json.loads(line)


def _is_meta(record: dict) -> bool:
    return "meta" in record and "name" not in record


def read_jsonl(path_or_file: Union[str, TextIO]) -> List[TraceEvent]:
    """Re-import a :func:`write_jsonl` log as :class:`TraceEvent` objects.

    The inverse of :func:`write_jsonl` up to arg-value stringification (the
    ``_json_default`` fallback renders enums and infinities as strings):
    event count, ordering, timing, and causal identity round-trip exactly,
    so the analyzer sees the same op DAGs from a file as from a live bus.
    A provenance record is skipped (:func:`read_meta` reads it).
    """
    return [
        TraceEvent(
            name=rec["name"],
            track=rec["track"],
            ts=rec["ts"],
            phase=rec.get("phase", "i"),
            dur=rec.get("dur", 0.0),
            args=rec.get("args", {}),
            op_id=rec.get("op_id"),
            parent_id=rec.get("parent_id"),
            category=rec.get("category"),
            node_id=rec.get("node_id"),
            engine_id=rec.get("engine_id"),
        )
        for rec in _records(path_or_file)
        if not _is_meta(rec)
    ]


def read_meta(path_or_file: Union[str, TextIO]) -> Optional[dict]:
    """The provenance stamp of a :func:`write_jsonl` log (its leading
    record), or ``None`` for a log written without one."""
    first = next(_records(path_or_file), None)
    return first["meta"] if first is not None and _is_meta(first) else None


def _json_default(value):
    """Fallback serialisation for enum/float('inf') args."""
    if value == float("inf"):
        return "inf"
    return str(value)


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_summary(
    registry: MetricsRegistry,
    bus: Optional[TraceBus] = None,
    title: str = "telemetry summary",
) -> str:
    """A human-readable digest: one line per metric, histograms condensed."""
    lines = [title, "=" * len(title)]
    snapshot = registry.snapshot()
    if not snapshot:
        lines.append("(no metrics recorded)")
    width = max((len(name) for name in snapshot), default=0)
    for name, value in snapshot.items():
        if isinstance(value, dict):  # histogram
            rendered = (
                f"count={value['count']} mean={_format_value(value['mean'])} "
                f"min={_format_value(value['min'])} max={_format_value(value['max'])}"
            )
        else:
            rendered = _format_value(value)
        lines.append(f"{name:<{width}}  {rendered}")
    if bus is not None:
        lines.append("")
        lines.append(
            f"trace: {len(bus)} events retained, {bus.dropped} dropped, "
            f"{len(bus.tracks())} tracks"
        )
    return "\n".join(lines)


def events_by_track(
    source: Union[TraceBus, Iterable[TraceEvent]]
) -> Dict[str, List[TraceEvent]]:
    """Group events per track, preserving emission order."""
    out: Dict[str, List[TraceEvent]] = {}
    for event in _events_of(source):
        out.setdefault(event.track, []).append(event)
    return out


def filter_events(
    source: Union[TraceBus, Iterable[TraceEvent]],
    name: Optional[str] = None,
    tracks: Optional[Sequence[str]] = None,
) -> List[TraceEvent]:
    """Events matching a name and/or a set of tracks."""
    events = _events_of(source)
    if name is not None:
        events = [e for e in events if e.name == name]
    if tracks is not None:
        wanted = set(tracks)
        events = [e for e in events if e.track in wanted]
    return events
