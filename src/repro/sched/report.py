"""Text timelines of scheduler activity from the telemetry bus.

``python -m repro trace <workload> --sched`` uses this to turn the
``sched-*`` trace events (queue-depth samples and preemptions — one
track per arbitrated link) into a per-link
queue-depth/preemption timeline readable without Perfetto.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.telemetry.bus import TraceEvent


def sched_events(events: Iterable[TraceEvent]) -> List[TraceEvent]:
    """The scheduler's events, in bus order."""
    return [ev for ev in events if ev.track.startswith("sched-")]


def render_sched_timeline(events: Iterable[TraceEvent], buckets: int = 40) -> str:
    """Per-link queue-depth and preemption timelines as fixed-width text.

    One block per arbitrated link: a sparkline of the maximum queue depth
    per time bucket (``.`` = empty, digits = depth, ``+`` = 10 or more)
    over the traced interval, annotated with preemption (``P``) marks,
    plus totals.
    """
    per_link: Dict[str, List[TraceEvent]] = {}
    for ev in sched_events(events):
        per_link.setdefault(ev.track, []).append(ev)
    if not per_link:
        return "no scheduler events recorded (is SchedConfig.enabled on?)"
    t0 = min(ev.ts for evs in per_link.values() for ev in evs)
    t1 = max(ev.ts for evs in per_link.values() for ev in evs)
    span = max(t1 - t0, 1e-9)
    lines: List[str] = [
        f"transfer-scheduler timeline  ({t0:.3f}s .. {t1:.3f}s nominal, "
        f"{buckets} buckets of {span / buckets:.4f}s)"
    ]
    for track in sorted(per_link):
        evs = per_link[track]
        depth = [0] * buckets
        marks = [" "] * buckets
        preemptions = 0
        for ev in evs:
            b = min(buckets - 1, int((ev.ts - t0) / span * buckets))
            if ev.name == "sched-queue":
                depth[b] = max(depth[b], int(ev.args.get("depth", 0)))
            elif ev.name == "sched-preempt":
                preemptions += 1
                marks[b] = "P"
        spark = "".join(
            "." if d == 0 else (str(d) if d < 10 else "+") for d in depth
        )
        lines.append(f"  {track[len('sched-'):]:28s} depth |{spark}|")
        if any(m != " " for m in marks):
            lines.append(f"  {'':28s} marks |{''.join(marks)}|")
        lines.append(f"  {'':28s}       {preemptions} preemptions")
    return "\n".join(lines)
