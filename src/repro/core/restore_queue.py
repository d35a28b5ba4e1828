"""Restore-order hint queue (Section 4.1.1).

The application enqueues checkpoint ids it intends to restore, in order,
at any time (``VELOC_Prefetch_enqueue``); hints cannot be revoked.
Prefetching begins when the application calls ``VELOC_Prefetch_start``
(optional — it lets a forward pass finish flushing before prefetches start
competing for bandwidth).

Hints are advisory: restores may deviate.  A deviating restore consumes its
entry wherever it is in the queue (at a performance penalty, since the
prefetcher was working toward the head).

``distance(ckpt_id)`` is the *prefetch distance* of Section 4.2 — the number
of queue entries between the head and the checkpoint — and feeds the
``s_score`` of Algorithm 1, which reads it from :meth:`hint_index`.

All methods require the engine monitor to be held by the caller.
"""

from __future__ import annotations

import bisect
from itertools import islice
from typing import Dict, Iterator, List, Optional, TYPE_CHECKING

from repro.errors import HintError

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry


class RestoreQueue:
    """Hint queue for one process."""

    def __init__(self, telemetry: Optional["Telemetry"] = None) -> None:
        self._order: List[int] = []  # all hints ever enqueued, in order
        self._position: Dict[int, int] = {}  # ckpt_id -> index in _order
        self._consumed: set = set()
        self._consumed_positions: List[int] = []  # sorted, for O(log n) counts
        self._head = 0  # index of the first unconsumed hint
        self.started = False
        #: bumped whenever the queue changes at all (enqueue/consume/start).
        self.version = 0
        #: bumped by every change that moves an *existing* hint distance —
        #: here :meth:`consume` (the head advances / consumed-between counts
        #: change).  A plain enqueue appends past every live hint and moves
        #: none.  It is what keeps :meth:`hint_index` current.
        self.shift_epoch = 0
        self._index: Dict[int, int] = {}
        self._index_epoch = 0
        if telemetry is None:
            from repro.telemetry import Telemetry

            telemetry = Telemetry.disabled()
        registry = telemetry.registry
        self._m_enqueued = registry.counter("hints.enqueued")
        self._m_consumed = registry.counter("hints.consumed")
        #: restores deviating from the hint order (served out of turn or
        #: never hinted) — the paper's hint-deviation penalty cases.
        self._m_deviations = registry.counter("hints.deviations")

    # -- application-facing ---------------------------------------------------
    def enqueue(self, ckpt_id: int) -> None:
        # A consumed-but-never-hinted version must also reject late hints:
        # the restore already happened, so the hint could never be consumed
        # and would pin the queue head forever.
        if ckpt_id in self._position or ckpt_id in self._consumed:
            raise HintError(
                f"hint for checkpoint {ckpt_id} already enqueued or consumed"
            )
        self._position[ckpt_id] = len(self._order)
        self._order.append(ckpt_id)
        self.version += 1
        self._index[ckpt_id] = RestoreQueue.__len__(self) - 1  # behind every live hint
        self._m_enqueued.inc()

    def start(self) -> None:
        self.started = True
        self.version += 1

    # -- queries ----------------------------------------------------------------
    def __len__(self) -> int:
        """Number of unconsumed hints."""
        consumed_past_head = len(self._consumed_positions) - bisect.bisect_left(
            self._consumed_positions, self._head
        )
        return len(self._order) - self._head - consumed_past_head

    def head(self) -> Optional[int]:
        self._advance_head()
        if self._head < len(self._order):
            return self._order[self._head]
        return None

    def upcoming(self, n: int) -> List[int]:
        """The next ``n`` unconsumed hinted checkpoint ids, in order."""
        return list(islice(self.iter_upcoming(), n))

    def iter_upcoming(self) -> Iterator[int]:
        """Every unconsumed hinted checkpoint id, nearest first, lazily: a
        caller that stops early (the prefetcher's horizon) pays only for
        the entries it looked at.  Must be exhausted or dropped before the
        monitor is released."""
        self._advance_head()
        order, consumed = self._order, self._consumed
        for idx in range(self._head, len(order)):
            ckpt_id = order[idx]
            if ckpt_id not in consumed:
                yield ckpt_id

    def distance(self, ckpt_id: int) -> Optional[int]:
        """Prefetch distance from the head; ``None`` when unhinted.

        Consumed entries between the head and the checkpoint do not count.
        """
        pos = self._position.get(ckpt_id)
        if pos is None or ckpt_id in self._consumed:
            return None
        self._advance_head()
        if pos < self._head:
            return None
        consumed_between = bisect.bisect_left(
            self._consumed_positions, pos
        ) - bisect.bisect_left(self._consumed_positions, self._head)
        return pos - self._head - consumed_between

    def is_hinted(self, ckpt_id: int) -> bool:
        return self._position.get(ckpt_id) is not None and ckpt_id not in self._consumed

    def is_explicit(self, ckpt_id: int) -> bool:
        """Whether the entry is an application hint (never speculative).

        Identical to :meth:`is_hinted` here; the predicted overlay of
        :class:`~repro.predict.queue.SyntheticRestoreQueue` reports its
        synthetic entries as hinted but *not* explicit, so the prefetcher
        can route them through the sched speculative class.
        """
        return self.is_hinted(ckpt_id)

    def hint_index(self) -> Dict[int, int]:
        """Every live hint's :meth:`distance`, by id (an absent id is
        unhinted): the map Algorithm 1's scan reads.  An enqueue adds its
        id; a :attr:`shift_epoch` bump has it rebuilt here, on the next
        read."""
        if self._index_epoch != self.shift_epoch:
            self._index = {ckpt_id: d for d, ckpt_id in enumerate(self.iter_upcoming())}
            self._index_epoch = self.shift_epoch
        return self._index

    # -- consumption ---------------------------------------------------------------
    def consume(self, ckpt_id: int) -> None:
        """Mark a restore as served; tolerates unhinted ids (deviation)."""
        if ckpt_id in self._consumed:
            raise HintError(f"checkpoint {ckpt_id} consumed twice")
        self.version += 1
        self.shift_epoch += 1
        self._m_consumed.inc()
        if ckpt_id in self._position:
            self._advance_head()
            if self._head < len(self._order) and self._order[self._head] != ckpt_id:
                self._m_deviations.inc()  # hinted, but served out of turn
            self._consumed.add(ckpt_id)
            bisect.insort(self._consumed_positions, self._position[ckpt_id])
            self._advance_head()
        else:
            self._m_deviations.inc()  # never hinted
            self._consumed.add(ckpt_id)  # rejects a late hint for this version

    def _advance_head(self) -> None:
        while self._head < len(self._order) and self._order[self._head] in self._consumed:
            self._head += 1
