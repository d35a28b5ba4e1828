"""Bounded ring of access events on the virtual clock.

Every checkpoint/restore/evict/demand-miss the engine observes is recorded
here per *producer* — the stable identity behind a stream of checkpoint
versions (a serving session, a revolve state index; defaults to the
checkpoint id itself when the application names none).  Predictors consume
the events incrementally through :meth:`~repro.predict.predictors.HybridPredictor.observe`; the ring keeps
a bounded replayable window for diagnostics and late-attaching consumers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Hashable, Iterator, List

#: event kinds recorded in the ring.
KIND_CHECKPOINT = "checkpoint"
KIND_RESTORE = "restore"
KIND_EVICT = "evict"
KIND_MISS = "miss"


@dataclass(frozen=True)
class AccessEvent:
    """One observed access, stamped on the virtual clock."""

    ts: float
    kind: str
    ckpt_id: int
    producer: Hashable


class AccessHistory:
    """Capacity-bounded event ring (oldest events drop first)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"history capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._events: Deque[AccessEvent] = deque(maxlen=capacity)
        #: total events ever recorded (including dropped ones).
        self.recorded = 0

    def record(
        self, ts: float, kind: str, ckpt_id: int, producer: Hashable
    ) -> AccessEvent:
        event = AccessEvent(ts=ts, kind=kind, ckpt_id=ckpt_id, producer=producer)
        self._events.append(event)
        self.recorded += 1
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[AccessEvent]:
        return iter(self._events)

    def recent(self, n: int) -> List[AccessEvent]:
        """The newest ``n`` events, oldest first."""
        if n <= 0:
            return []
        if n >= len(self._events):
            return list(self._events)
        out = list(self._events)
        return out[-n:]
