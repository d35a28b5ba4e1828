"""The trace bus: ring-buffered spans and instant events on virtual time.

A :class:`TraceBus` is a bounded, thread-safe sink for fine-grained runtime
events — FSM transitions, eviction decisions, flush/prefetch stages — each
stamped on the engine's :class:`~repro.clock.VirtualClock` so a trace lines
up exactly with the nominal-time throughput numbers the paper reports.

Design constraints (the bus sits on the runtime's per-chunk paths):

* **Cheap when disabled.**  A disabled bus emits *nothing*: ``instant``
  returns after one attribute check and ``span`` hands back a shared no-op
  context manager — no rows, no buffer traffic, no locking.
* **One row per event when enabled.**  An event is recorded as one tuple,
  :class:`TraceEvent`'s fields in order — ``(name, track, ts, phase, dur,
  args, op_id, parent_id, category)``, plus ``(node_id, engine_id)`` once a
  track binding exists — appended under the bus's one lock.  No event
  object is built until :meth:`TraceBus.snapshot` (and so every exporter)
  asks for them.  The per-chunk sites (store chunk charges, pipeline chunk
  slices, link arbitration, causal fills) read the clock and build the arg
  dict themselves and pass the fields to :meth:`TraceBus.record`
  positionally; cold sites keep ``instant`` / ``span`` / ``complete``.  On
  a 2-vCPU guest an enabled ``complete`` costs about 2 µs and ``record``
  about 1 µs, against 6 µs for a ``complete`` that built a ``TraceEvent``
  object; the ledger's
  ``transport_on`` (85 events per operation) gained 17 % in
  ``host_ops_per_s`` from it (EXPERIMENTS.md, "Ledger check of cheap trace
  recording").
* **Bounded.**  Rows live in a ring of ``capacity`` entries; overflow
  silently drops the *oldest* (the tail of a long run is what one usually
  debugs) and counts the drops in :attr:`TraceBus.dropped`.

Tracks
------
Every event names a *track* — the timeline it renders on in Perfetto (one
per cache tier, background thread, and store).  Use :meth:`TraceBus.track`
to build conventional track names.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.clock import VirtualClock

#: Per-process track convention (:meth:`TraceBus.track`): ``p<pid>-...``.
_PID_TRACK_RE = re.compile(r"^p(\d+)-")

#: Default ring capacity: enough for a full benchmark shot (a 192-snapshot
#: 8-rank run emits ~50k events) without unbounded growth on long runs.
DEFAULT_CAPACITY = 1 << 17


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One trace record.

    ``phase`` follows the Chrome trace-event vocabulary the exporter emits:
    ``"X"`` — a complete span of ``dur`` nominal seconds starting at ``ts``;
    ``"i"`` — an instant event at ``ts``.

    The three causal fields are optional (all ``None`` unless
    ``AnalysisConfig.enabled`` attaches them): ``op_id`` ties the event to
    one operation's lifetime (``c<pid>:<ckpt>`` checkpoint,
    ``r<pid>:<ckpt>`` restore, ``f<pid>:<ckpt>`` prefetch chain),
    ``parent_id`` links an operation to the operation that caused it, and
    ``category`` names the attribution bucket the event's duration charges
    (see :data:`repro.telemetry.causal.CATEGORIES`).
    """

    name: str
    track: str
    ts: float  # nominal seconds
    phase: str = "i"
    dur: float = 0.0  # nominal seconds (spans only)
    args: dict = field(default_factory=dict)
    op_id: Optional[str] = None
    parent_id: Optional[str] = None
    category: Optional[str] = None
    #: cluster attribution (None outside fabric-enabled runs): the node
    #: whose hardware the event ran on, and the engine (process id) that
    #: caused it. Stamped by the bus from the track bindings, so emitters
    #: never thread node ids through their call chains.
    node_id: Optional[int] = None
    engine_id: Optional[int] = None


class _Span:
    """Context manager recording one complete ("X") row on exit (cold call
    sites; a per-chunk site reads the clock itself and calls
    :meth:`TraceBus.record`)."""

    __slots__ = ("_bus", "_name", "_track", "_args", "_started", "_op_id", "_parent_id", "_category")

    def __init__(
        self,
        bus: "TraceBus",
        name: str,
        track: str,
        args: dict,
        op_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        category: Optional[str] = None,
    ) -> None:
        self._bus = bus
        self._name = name
        self._track = track
        self._args = args
        self._started = 0.0
        self._op_id = op_id
        self._parent_id = parent_id
        self._category = category

    def __enter__(self) -> "_Span":
        self._started = self._bus.clock.now()
        return self

    def add(self, **args) -> None:
        """Attach extra args discovered while the span is open."""
        self._args.update(args)

    def __exit__(self, *exc_info) -> None:
        started = self._started
        self._bus.record(
            self._name, self._track, started, "X", self._bus.clock.now() - started,
            self._args, self._op_id, self._parent_id, self._category,
        )


class _NullSpan:
    """Shared no-op span handed out by a disabled bus."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def add(self, **args) -> None:
        pass

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()


class TraceBus:
    """Bounded ring of trace rows for one simulation; see the module
    docstring for the row format."""

    def __init__(
        self,
        clock: VirtualClock,
        enabled: bool = True,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"trace buffer capacity must be positive: {capacity}")
        self.clock = clock
        self.enabled = enabled
        self.capacity = capacity
        self._rows: deque = deque(maxlen=capacity)
        self._emitted = 0
        self._lock = threading.Lock()
        # Track → (node_id, engine_id) attribution (cluster runs only;
        # ``_bound`` stays False until the first binding, so an unbound
        # bus appends each row as it comes).
        self._bound = False
        self._bind_exact: Dict[str, Tuple[Optional[int], Optional[int]]] = {}
        self._bind_pid: Dict[int, int] = {}
        self._bind_cache: Dict[str, Tuple[Optional[int], Optional[int]]] = {}

    # -- emission -----------------------------------------------------------
    def instant(
        self,
        name: str,
        track: str,
        op_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        category: Optional[str] = None,
        **args,
    ) -> None:
        """Record an instant event now (no-op when disabled)."""
        if self.enabled:
            self.record(name, track, self.clock.now(), "i", 0.0, args, op_id, parent_id, category)

    def span(
        self,
        name: str,
        track: str,
        op_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        category: Optional[str] = None,
        **args,
    ):
        """A context manager timing one operation (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, track, args, op_id=op_id, parent_id=parent_id, category=category)

    def complete(
        self,
        name: str,
        track: str,
        ts: float,
        dur: float,
        op_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        category: Optional[str] = None,
        **args,
    ) -> None:
        """Record a back-dated complete ("X") span with explicit timing, for
        waits measured between two known points."""
        if self.enabled:
            self.record(name, track, ts, "X", dur, args, op_id, parent_id, category)

    def record(
        self,
        name: str,
        track: str,
        ts: float,
        phase: str,
        dur: float,
        args: dict,
        op_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        category: Optional[str] = None,
    ) -> None:
        """Record one event from its fields, ``args`` its arg dict (no-op
        when disabled): the form the per-chunk sites call, with the clock
        read and the dict built themselves — after testing :attr:`enabled`,
        so that a disabled bus costs them neither.  The event is appended
        as one row, stamped with its track's binding when any exists."""
        if not self.enabled:
            return
        row = (name, track, ts, phase, dur, args, op_id, parent_id, category)
        with self._lock:
            if self._bound:
                row += self._resolve_binding(track)
            self._rows.append(row)
            self._emitted += 1

    # -- node/engine attribution ----------------------------------------------
    def bind_track(
        self,
        track: str,
        node_id: Optional[int] = None,
        engine_id: Optional[int] = None,
    ) -> None:
        """Stamp every future event on ``track`` with a node/engine id."""
        with self._lock:
            self._bind_exact[track] = (node_id, engine_id)
            self._bind_cache.clear()
            self._bound = True

    def bind_process(self, process_id: int, node_id: int) -> None:
        """Stamp every future ``p<pid>-*`` event with its node and engine."""
        with self._lock:
            self._bind_pid[process_id] = node_id
            self._bind_cache.clear()
            self._bound = True

    def _resolve_binding(self, track: str) -> Tuple[Optional[int], Optional[int]]:
        """(node_id, engine_id) for a track; caller holds ``_lock``."""
        binding = self._bind_cache.get(track)
        if binding is None:
            binding = self._bind_exact.get(track)
            if binding is None:
                match = _PID_TRACK_RE.match(track)
                if match is not None:
                    pid = int(match.group(1))
                    binding = (self._bind_pid.get(pid), pid)
                else:
                    binding = (None, None)
            self._bind_cache[track] = binding
        return binding

    # -- inspection ----------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    @property
    def emitted(self) -> int:
        """Total events ever emitted (including those the ring dropped)."""
        with self._lock:
            return self._emitted

    @property
    def dropped(self) -> int:
        """Events lost to ring overflow."""
        with self._lock:
            return self._emitted - len(self._rows)

    def snapshot(self) -> List[TraceEvent]:
        """A consistent copy of the retained events, oldest first: the one
        place rows become :class:`TraceEvent` objects."""
        with self._lock:
            rows = list(self._rows)
        return [TraceEvent(*row) for row in rows]

    def clear(self) -> None:
        """Drop buffered events; track bindings persist across clears."""
        with self._lock:
            self._rows.clear()
            self._emitted = 0

    def tracks(self) -> List[str]:
        """Distinct track names present, in first-seen order."""
        with self._lock:
            return list(dict.fromkeys(row[1] for row in self._rows))

    # -- naming conventions ---------------------------------------------------
    @staticmethod
    def track(process_id: Optional[int], component: str) -> str:
        """Conventional track name: ``p<pid>-<component>`` or ``<component>``.

        Per-process tracks (caches, flush streams, the prefetcher, the
        application thread) carry the pid prefix; cluster-shared resources
        (SSD, PFS) use the bare component name.
        """
        if process_id is None:
            return component
        return f"p{process_id}-{component}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return f"TraceBus({state}, {len(self)}/{self.capacity} events)"
