"""Causal operation tracing: op ids, stages, and queue fills.

One :class:`OpTrace` follows a single logical operation — a
``checkpoint()``, a ``restore()``, or a prefetch chain — through every
thread it touches: the application thread, the flush streams, the
prefetcher.  Every span it emits carries the operation's ``op_id`` and an
attribution ``category``, so :mod:`repro.analysis` can rebuild the
operation's span DAG and account its wall time.

Accounting completeness is achieved *by construction* with a cursor: the
op remembers the virtual time up to which its timeline is covered, and
every stage first back-fills the gap ``[cursor, now]`` as a ``wait`` span
(category ``queue``) before timing its own body.  Stages therefore tile
the operation's window; the analyzer's ≥95 % invariant holds without
guessing where bookkeeping time went.

Op-id format (stable across runs, so ``repro analyze --diff`` can align
operations): ``c<pid>:<ckpt>`` checkpoint, ``r<pid>:<ckpt>`` restore,
``f<pid>:<ckpt>`` prefetch chain.  Restores and prefetches name the
checkpoint op that produced their data as ``parent_id``.

Everything here is gated by ``AnalysisConfig.enabled``: a disabled
:class:`OpTracer` hands out the shared :data:`NULL_OP`, whose methods are
no-ops and whose ``op_id`` is ``None`` — call sites pass it through
unconditionally and stay bit-identical to the pre-causal runtime.
"""

from __future__ import annotations

import re
import threading
from typing import Optional

from repro.telemetry.bus import TraceBus

# -- category taxonomy -------------------------------------------------------
#: waiting for a turn: stream queues, sched admission, inter-stage gaps,
#: inflight-transfer stalls, and (honestly) simulator bookkeeping.
CAT_QUEUE = "queue"
#: bytes moving on a tier link (d2h/h2f/f2p/repl/promotions).
CAT_TRANSFER = "transfer"
#: retry machinery: backoff sleeps, re-verification re-puts.
CAT_RETRY = "retry"
#: flushing around an open breaker (direct-to-PFS) and backfill catch-up.
CAT_REROUTE = "reroute"
#: reduction codec compute (encode/decode).
CAT_REDUCE = "reduce"
#: blocking on cache capacity (eviction waits).
CAT_RESERVE = "reserve"

#: Every category the analyzer recognises.
CATEGORIES = (
    CAT_QUEUE,
    CAT_TRANSFER,
    CAT_RETRY,
    CAT_REROUTE,
    CAT_REDUCE,
    CAT_RESERVE,
)

#: Tie-break for the attribution sweep when two overlapping spans of one op
#: start at the same instant (the primary rule is innermost-wins, i.e.
#: later start): the higher value takes the interval — a backoff opening
#: exactly with its transfer charges to ``retry``, not ``transfer``.
CATEGORY_PRIORITY = {
    CAT_RETRY: 6,
    CAT_REDUCE: 5,
    CAT_RESERVE: 4,
    CAT_REROUTE: 3,
    CAT_TRANSFER: 2,
    CAT_QUEUE: 1,
}

#: op-id grammar: kind letter, process id, checkpoint id.
OP_ID_RE = re.compile(r"^([crf])(\d+):(\d+)$")

#: op-id kind letter -> operation kind.
OP_KINDS = {"c": "checkpoint", "r": "restore", "f": "prefetch"}


def parse_op_id(op_id: str):
    """``(kind, pid, ckpt_id)`` for a well-formed op id, else ``None``."""
    m = OP_ID_RE.match(op_id)
    if not m:
        return None
    return OP_KINDS[m.group(1)], int(m.group(2)), int(m.group(3))


def checkpoint_op_id(pid: int, ckpt_id: int) -> str:
    return f"c{pid}:{ckpt_id}"


def restore_op_id(pid: int, ckpt_id: int) -> str:
    return f"r{pid}:{ckpt_id}"


def prefetch_op_id(pid: int, ckpt_id: int) -> str:
    return f"f{pid}:{ckpt_id}"


class _OpStage:
    """Context manager: back-fill the gap from the op cursor, time the body."""

    __slots__ = ("_op", "_name", "_track", "_category", "_args", "_entered")

    def __init__(self, op: "OpTrace", name: str, category: str, track: str, args: dict):
        self._op = op
        self._name = name
        self._track = track
        self._category = category
        self._args = args
        self._entered = 0.0

    def __enter__(self) -> "_OpStage":
        self._entered = self._op._fill_to_now(self._track)
        return self

    def add(self, **args) -> None:
        self._args.update(args)

    def __exit__(self, *exc_info) -> None:
        op = self._op
        now = op.bus.clock.now()
        op.bus.complete(
            self._name,
            self._track,
            self._entered,
            now - self._entered,
            op_id=op.op_id,
            category=self._category,
            **self._args,
        )
        op._advance(now)


class _NullStage:
    __slots__ = ()

    def __enter__(self) -> "_NullStage":
        return self

    def add(self, **args) -> None:
        pass

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_STAGE = _NullStage()


class OpTrace:
    """Causal identity + coverage cursor of one in-flight operation."""

    __slots__ = ("bus", "op_id", "parent_id", "track", "start", "_cursor", "_lock")

    def __init__(
        self, bus: TraceBus, op_id: str, track: str, parent_id: Optional[str] = None
    ) -> None:
        self.bus = bus
        self.op_id = op_id
        self.parent_id = parent_id
        self.track = track
        now = bus.clock.now()
        self.start = now
        self._cursor = now
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return True

    # -- cursor ------------------------------------------------------------
    def _advance(self, now: float) -> None:
        with self._lock:
            if now > self._cursor:
                self._cursor = now

    def _fill_to_now(self, track: str) -> float:
        """Emit a ``wait`` span covering ``[cursor, now]``; returns ``now``.

        Concurrent flush legs may race here; the cursor only moves forward,
        so fills can overlap (the analyzer's sweep unions them) but never
        leave a gap.
        """
        now = self.bus.clock.now()
        with self._lock:
            gap_start = self._cursor
            if now > self._cursor:
                self._cursor = now
        if now > gap_start:
            self.bus.complete(
                "wait", track, gap_start, now - gap_start, op_id=self.op_id, category=CAT_QUEUE
            )
        return now

    # NOTE: there is deliberately no "advance the cursor to now" method for
    # use after a span emitted via ``bus.span``: reading the clock *after*
    # the span recorded its end would overshoot the cursor by the call
    # latency, leaving an unattributable sliver per span (hundreds of short
    # prefetch rounds push a chain op under the 95 % invariant).  Call
    # sites instead leave the cursor where it was; the next fill/stage
    # back-fills *over* the span and the attribution sweep's
    # innermost-wins rule hands the span its own interval.

    # -- emission ----------------------------------------------------------
    def stage(self, name: str, category: str, track: Optional[str] = None, **args):
        """Time a stage of this op, back-filling the gap since the cursor."""
        return _OpStage(self, name, category, track or self.track, args)

    def fill(self, name: str, category: str = CAT_QUEUE, track: Optional[str] = None, **args):
        """Back-fill ``[cursor, now]`` as one named span of ``category``."""
        now = self.bus.clock.now()
        with self._lock:
            gap_start = self._cursor
            if now > self._cursor:
                self._cursor = now
        if now > gap_start:
            self.bus.complete(
                name,
                track or self.track,
                gap_start,
                now - gap_start,
                op_id=self.op_id,
                category=category,
                **args,
            )

    def instant(
        self, name: str, track: Optional[str] = None, category: Optional[str] = None, **args
    ) -> None:
        self.bus.instant(
            name, track or self.track, op_id=self.op_id, category=category, **args
        )


class _NullOp:
    """Shared no-op stand-in when causal tracing is disabled."""

    __slots__ = ()
    op_id = None
    parent_id = None
    track = ""
    start = 0.0

    @property
    def enabled(self) -> bool:
        return False

    def stage(self, name: str, category: str, track: Optional[str] = None, **args):
        return _NULL_STAGE

    def fill(self, name: str, category: str = CAT_QUEUE, track: Optional[str] = None, **args):
        pass

    def instant(
        self, name: str, track: Optional[str] = None, category: Optional[str] = None, **args
    ) -> None:
        pass


NULL_OP = _NullOp()


class OpTracer:
    """Per-engine factory of :class:`OpTrace` handles.

    Disabled (``AnalysisConfig.enabled=False`` or the trace bus off) it
    returns :data:`NULL_OP` from every method, so call sites need no
    branching.
    """

    def __init__(self, bus: TraceBus, process_id: int, enabled: bool) -> None:
        self.bus = bus
        self.process_id = process_id
        self.enabled = bool(enabled) and bus.enabled

    def checkpoint(self, ckpt_id: int, track: str):
        if not self.enabled:
            return NULL_OP
        return OpTrace(self.bus, checkpoint_op_id(self.process_id, ckpt_id), track)

    def restore(self, ckpt_id: int, track: str):
        if not self.enabled:
            return NULL_OP
        return OpTrace(
            self.bus,
            restore_op_id(self.process_id, ckpt_id),
            track,
            parent_id=checkpoint_op_id(self.process_id, ckpt_id),
        )

    def prefetch(self, ckpt_id: int, track: str):
        if not self.enabled:
            return NULL_OP
        return OpTrace(
            self.bus,
            prefetch_op_id(self.process_id, ckpt_id),
            track,
            parent_id=checkpoint_op_id(self.process_id, ckpt_id),
        )
