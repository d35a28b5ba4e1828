"""``predict_evictable`` (Section 4.2).

Estimates ``state_ts`` — the nominal seconds until a cached instance reaches
an evictable state — from the instance's life-cycle position, the checkpoint
size, the bandwidth toward the next slower tier, and the backlog of other
enqueued flushes competing for that bandwidth (``Link.pending_bytes``).
"""

from __future__ import annotations

import math
from typing import Callable, TYPE_CHECKING

from repro.core.lifecycle import CkptState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import CheckpointRecord
    from repro.tiers.base import TierLevel

#: state_ts of an instance that can never become evictable by waiting
#: (pinned by the anti-thrashing rule until the application consumes it).
NEVER = math.inf

#: Finite penalty charged when a *forced* eviction of a prefetched-but-
#: unconsumed instance is permitted (demand restores that deviate from the
#: hints): large enough that such windows lose to any waitable window.
FORCE_EVICT_PENALTY = 1e9

#: Finite penalty for revoking a *speculative* staging (predicted, not
#: hinted).  Below :data:`FORCE_EVICT_PENALTY` — when space must be taken
#: from unconsumed read copies, revoking speculation is always preferred
#: to force-evicting an explicitly hinted prefetch — but still far above
#: any waitable flush, so speculation is only revoked as a last resort.
SPECULATIVE_EVICT_PENALTY = 1e8


def instance_state_ts(
    record: "CheckpointRecord",
    level: "TierLevel",
    flush_estimate: Callable[[int], float],
    allow_pinned: bool = False,
) -> float:
    """Nominal seconds until the instance on ``level`` becomes evictable.

    ``flush_estimate(nbytes)`` estimates the remaining flush duration toward
    the next slower tier, including the backlog on the shared link.
    """
    inst = record.peek(level)
    if inst is None:
        return 0.0
    if inst.evictable:
        # Evictable, unless an in-flight flush still needs the bytes
        # (the snapshot in the flusher clears this promptly).
        return flush_estimate(record.stored_size(level)) if inst.flush_pending else 0.0
    if inst.state == CkptState.READ_IN_PROGRESS:
        return NEVER  # transfer in flight; the extent is incomplete
    if inst.state == CkptState.READ_COMPLETE:
        if inst.speculative:
            # Revocable staging: a duplicate of a durable copy, evictable
            # even without the forced-eviction waiver (the wrong-prediction
            # escape hatch — nothing guarantees a speculation is ever
            # consumed, so it must not pin the extent indefinitely).
            return SPECULATIVE_EVICT_PENALTY
        return FORCE_EVICT_PENALTY if allow_pinned else NEVER
    # WRITE_IN_PROGRESS / WRITE_COMPLETE: evictable once flushed downward.
    # The stored size at this tier is exactly what the downward flush will
    # move on the wire (reduced physical bytes below the reduction site).
    return flush_estimate(record.stored_size(level))
