"""Runtime observability: trace bus, metrics registry, exporters.

One :class:`Telemetry` object per simulation (the
:class:`~repro.tiers.topology.Cluster` owns it) bundles:

* :class:`~repro.telemetry.bus.TraceBus` — ring-buffered spans and instant
  events on the virtual clock (lifecycle transitions, eviction decisions
  with their Algorithm-1 scores, flush/prefetch stages);
* :class:`~repro.telemetry.metrics.MetricsRegistry` — named counters,
  gauges and histograms (occupancy, fragmentation, queue depths, eviction
  waits, per-tier bytes, restore hits per tier).

The trace bus is gated by ``RuntimeConfig.telemetry`` (default off: each
emit site then pays one attribute check).  On, it records every event as
one tuple row in its ring and builds :class:`TraceEvent` objects only when
exported.  Recording is not free: the ledger's ``transport_on`` (about 85
events per operation, tracing and causal ids on) completes about a sixth
fewer operations per host second than with the bus off, down from a
quarter when every event was an object (EXPERIMENTS.md, "Ledger check of
cheap trace recording").  The
registry is always live, its counters being a few dict operations per
*operation* (not per byte).  Export with
:func:`~repro.telemetry.exporters.write_chrome_trace` (Perfetto),
:func:`~repro.telemetry.exporters.write_jsonl`, or
:func:`~repro.telemetry.exporters.render_summary`, stamped with
:func:`~repro.telemetry.exporters.provenance`; or from the command
line::

    python -m repro trace quickstart --out-dir traces/
"""

from __future__ import annotations

from typing import Optional

from repro.clock import VirtualClock
from repro.telemetry.bus import DEFAULT_CAPACITY, NULL_SPAN, TraceBus, TraceEvent
from repro.telemetry.causal import CATEGORIES, NULL_OP, OpTrace, OpTracer
from repro.telemetry.exporters import (
    chrome_trace,
    events_by_track,
    filter_events,
    provenance,
    read_jsonl,
    read_meta,
    render_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry


class Telemetry:
    """Bundle of one simulation's trace bus and metrics registry."""

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        enabled: bool = False,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.bus = TraceBus(clock or VirtualClock(), enabled=enabled, capacity=capacity)
        self.registry = MetricsRegistry()
        if clock is not None:
            # How much of the run's virtual time cost no wall time.
            self.registry.reading("clock.skips", lambda: clock.skips)
            self.registry.reading("clock.skipped_s", lambda: clock.skipped_s)
            self.registry.reading("clock.paced_s", lambda: clock.paced_s)

    @property
    def enabled(self) -> bool:
        """Whether the trace bus records events."""
        return self.bus.enabled

    @staticmethod
    def disabled() -> "Telemetry":
        """A fresh, silent instance (used when no cluster provides one)."""
        return Telemetry(enabled=False)


__all__ = [
    "Telemetry",
    "TraceBus",
    "TraceEvent",
    "NULL_SPAN",
    "DEFAULT_CAPACITY",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "read_meta",
    "provenance",
    "render_summary",
    "events_by_track",
    "filter_events",
    "OpTrace",
    "OpTracer",
    "NULL_OP",
    "CATEGORIES",
]
