"""Checkpoint life cycle (Figure 1 of the paper).

Every *instance* — one checkpoint's presence on one cache tier — walks the
finite-state machine below.  The checkpointing path runs
``INIT → WRITE_IN_PROGRESS → WRITE_COMPLETE → FLUSHED``; the prefetching
path runs ``INIT → READ_IN_PROGRESS → READ_COMPLETE → CONSUMED``; a cached
instance that serves a restore before being evicted crosses over
(``WRITE_COMPLETE``/``FLUSHED`` → ``READ_COMPLETE`` → ``CONSUMED``).

Only ``FLUSHED`` and ``CONSUMED`` instances are evictable.
``READ_IN_PROGRESS`` / ``READ_COMPLETE`` instances are *pinned*: the paper's
anti-thrashing rule (problem condition (4)) forbids evicting a prefetched
checkpoint before it is consumed.  The one exception is a
:attr:`Instance.speculative` ``READ_COMPLETE`` copy — staged by the
access-pattern predictor rather than an explicit hint, it is revocable
under cache pressure (see the property's docstring).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, FrozenSet, Optional

from repro.errors import LifecycleError

#: Transition observer: ``(instance, old_state, new_state, now)``.  Invoked
#: with the engine monitor held, *after* the state changed — observers must
#: be non-blocking (the telemetry bus appends one ring-buffer entry).
TransitionObserver = Callable[["Instance", "CkptState", "CkptState", float], None]


class CkptState(Enum):
    INIT = "init"
    WRITE_IN_PROGRESS = "write_in_progress"
    WRITE_COMPLETE = "write_complete"
    FLUSHED = "flushed"
    READ_IN_PROGRESS = "read_in_progress"
    READ_COMPLETE = "read_complete"
    CONSUMED = "consumed"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.value}>"


#: Legal transitions of Figure 1 (plus the record-level consumption edge
#: FLUSHED → CONSUMED: consuming a checkpoint marks *all* its cached
#: instances consumed, including already-flushed ones — both states are
#: evictable, so this only widens what eviction may reclaim).
_TRANSITIONS: Dict[CkptState, FrozenSet[CkptState]] = {
    CkptState.INIT: frozenset({CkptState.WRITE_IN_PROGRESS, CkptState.READ_IN_PROGRESS}),
    CkptState.WRITE_IN_PROGRESS: frozenset({CkptState.WRITE_COMPLETE}),
    CkptState.WRITE_COMPLETE: frozenset({CkptState.FLUSHED, CkptState.READ_COMPLETE}),
    CkptState.FLUSHED: frozenset({CkptState.READ_COMPLETE, CkptState.CONSUMED}),
    CkptState.READ_IN_PROGRESS: frozenset({CkptState.READ_COMPLETE}),
    CkptState.READ_COMPLETE: frozenset({CkptState.CONSUMED}),
    CkptState.CONSUMED: frozenset(),
}

#: States in which the instance's bytes on the tier are complete and usable.
COPY_STATES: FrozenSet[CkptState] = frozenset(
    {CkptState.WRITE_COMPLETE, CkptState.FLUSHED, CkptState.READ_COMPLETE, CkptState.CONSUMED}
)

#: States making an instance immediately evictable.
EVICTABLE_STATES: FrozenSet[CkptState] = frozenset({CkptState.FLUSHED, CkptState.CONSUMED})

#: States that pin the instance until consumption (anti-thrashing rule).
PINNED_STATES: FrozenSet[CkptState] = frozenset(
    {CkptState.READ_IN_PROGRESS, CkptState.READ_COMPLETE}
)


def validate_transition(current: CkptState, new: CkptState) -> None:
    """Raise :class:`LifecycleError` unless ``current → new`` is legal."""
    if new not in _TRANSITIONS[current]:
        raise LifecycleError(f"illegal transition {current.value} -> {new.value}")


def allowed_transitions(current: CkptState) -> FrozenSet[CkptState]:
    return _TRANSITIONS[current]


class Instance:
    """One checkpoint's presence on one tier.

    State mutations must happen with the owning engine's monitor held; the
    caller is responsible for notifying the monitor afterwards.
    """

    __slots__ = (
        "level",
        "state",
        "state_since",
        "_flush_pending",
        "_read_pinned",
        "_speculative",
        "version",
        "observer",
        "tracker",
    )

    def __init__(self, level, observer: Optional[TransitionObserver] = None) -> None:
        self.level = level
        self.state = CkptState.INIT
        self.state_since = 0.0
        self._flush_pending = False
        self._read_pinned = 0
        self._speculative = False
        #: bumped on every eviction-relevant change — state transitions and
        #: ``flush_pending`` / ``read_pinned`` / ``speculative`` flips — and
        #: each bump runs ``tracker``, so the owning cache's memoised
        #: Algorithm-1 cost never outlives the state it priced.
        self.version = 0
        #: telemetry hook notified of every state change (None when the
        #: trace bus is disabled, so the FSM pays nothing by default).
        self.observer = observer
        #: owning-cache hook run on every version bump as ``(instance, old,
        #: new, now)`` (``old is new`` for a flip): it keeps the pinned-byte
        #: total and drops the instance's memoised Algorithm-1 costs; same
        #: constraints as ``observer``.
        self.tracker = None

    @property
    def flush_pending(self) -> bool:
        """An in-flight flush still needs to snapshot this tier's bytes;
        until cleared the instance must not be reclaimed even if its state
        is evictable (set on schedule, cleared once the flusher has copied
        the payload out of the arena)."""
        return self._flush_pending

    @flush_pending.setter
    def flush_pending(self, value: bool) -> None:
        if value != self._flush_pending:
            self._flush_pending = value
            self._bump(self.state, self.state_since)

    @property
    def read_pinned(self) -> int:
        """Number of in-flight promotions reading this extent as their
        source; a non-zero count blocks eviction like ``flush_pending``."""
        return self._read_pinned

    @read_pinned.setter
    def read_pinned(self, value: int) -> None:
        if value != self._read_pinned:
            self._read_pinned = value
            self._bump(self.state, self.state_since)

    @property
    def speculative(self) -> bool:
        """The read path that staged this extent was a *predicted* prefetch,
        not an explicit application hint.  A speculative ``READ_COMPLETE``
        copy is revocable: the anti-thrashing pin does not apply (the bytes
        are a duplicate of a durable copy, and a wrong prediction would
        otherwise pin the extent forever — with hints the application's
        promise guarantees consumption, with speculation nothing does, and
        a cache full of never-consumed pins deadlocks the flush path).
        Cleared when a demand restore claims the extent, restoring the pin
        for the copy-out window."""
        return self._speculative

    @speculative.setter
    def speculative(self, value: bool) -> None:
        if value != self._speculative:
            self._speculative = value
            self._bump(self.state, self.state_since)

    def _bump(self, old: CkptState, now: float) -> None:
        self.version += 1
        if self.tracker is not None:
            self.tracker(self, old, self.state, now)

    def transition(self, new: CkptState, now: float = 0.0) -> None:
        validate_transition(self.state, new)
        old = self.state
        self.state = new
        self.state_since = now
        self._bump(old, now)
        if self.observer is not None:
            self.observer(self, old, new, now)

    def try_transition(self, new: CkptState, now: float = 0.0) -> bool:
        """Transition if legal; return whether it happened."""
        if new not in _TRANSITIONS[self.state]:
            return False
        self.transition(new, now)
        return True

    @property
    def has_copy(self) -> bool:
        return self.state in COPY_STATES

    @property
    def evictable(self) -> bool:
        return self.state in EVICTABLE_STATES

    @property
    def pinned(self) -> bool:
        return self.state in PINNED_STATES

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Instance({self.level!r}, {self.state.value})"
