"""Transfer classification: the priority lattice and per-transfer requests.

Every byte that crosses a shared tier link belongs to one of four classes
(Section 4.3.2's demand-first rule, generalised into a full lattice).  A
blocked ``checkpoint`` waits on the device-to-device copy into the GPU
cache, which crosses no shared link, so the write path has no class of
its own:

======================  ====================================================
Class                   Traffic
======================  ====================================================
``DEMAND_READ``         a blocked ``restore`` promoting its checkpoint
``HINTED_PREFETCH``     prefetch of a near-head hint (distance ≤ near)
``CASCADE_FLUSH``       asynchronous flush legs (D2H, H2F, F2P, replication)
``SPECULATIVE_PREFETCH``prefetch of a far-future hint; preemptible
======================  ====================================================

Lower enum value = higher priority.  A :class:`TransferRequest` tags one
transfer with its class, the issuing engine (the fair-queuing flow), an optional
deadline (derived from the hint's restore-queue distance) and a cancellation
event the scheduler fires to preempt speculative prefetches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from repro.clock import Event


class TransferClass(IntEnum):
    """Priority classes for shared-link arbitration (lower = more urgent)."""

    DEMAND_READ = 0
    HINTED_PREFETCH = 1
    CASCADE_FLUSH = 2
    SPECULATIVE_PREFETCH = 3


#: Classes the scheduler may cancel mid-flight when a demand read arrives.
PREEMPTIBLE_CLASSES = frozenset({TransferClass.SPECULATIVE_PREFETCH})


@dataclass
class TransferRequest:
    """One transfer's scheduling identity, shared across its link hops.

    ``deadline`` is an absolute nominal timestamp (``clock.now()`` units) by
    which the bytes should have landed — prefetch requests derive it from
    their restore-queue distance; ``None`` means "no deadline" and sorts
    last within the class.  ``cancel_event`` doubles as the preemption
    channel: the scheduler sets it to abort a speculative prefetch, and
    callers with their own cancellation semantics (flush abandonment) pass
    the event they already own.
    """

    tclass: TransferClass
    engine_id: int = 0
    deadline: Optional[float] = None
    cancel_event: Event = field(default_factory=Event)
    #: causal id of the operation this transfer serves (None unless
    #: ``AnalysisConfig.enabled``); the scheduler stamps it on the
    #: ``sched-wait`` span it emits for the transfer's first grant wait.
    op_id: Optional[str] = None

    @property
    def preemptible(self) -> bool:
        return self.tclass in PREEMPTIBLE_CLASSES

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tail = "" if self.deadline is None else f", deadline={self.deadline:.3f}"
        return f"TransferRequest({self.tclass.name}, engine {self.engine_id}{tail})"
