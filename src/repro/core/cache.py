"""CacheBuffer: one contiguous cache arena plus its eviction machinery.

Combines an :class:`~repro.simgpu.memory.Arena`, an
:class:`~repro.core.alloctable.AllocTable`, and a pluggable eviction policy
under the engine monitor.  ``reserve`` implements the blocking semantics of
Algorithm 1: pick the best window, wait until its members are evictable
(states change concurrently as the flusher progresses and the application
consumes checkpoints — after every wait the selection is re-evaluated
against the fresh table), evict, and claim the resulting gap.

Safety invariant enforced here: eviction never destroys the only complete
copy of an unconsumed checkpoint.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from repro.clock import VirtualClock
from repro.core.alloctable import AllocTable
from repro.core.lifecycle import PINNED_STATES, CkptState, Instance
from repro.core.predict import NEVER, instance_state_ts
from repro.core.scoring import BARRIER, Costs, ScorePolicy, Window, exact
from repro.core.sync import Monitor
from repro.errors import AllocationError, CapacityError, TransferError
from repro.simgpu.memory import Arena
from repro.telemetry import Telemetry
from repro.tiers.base import TierLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import CheckpointRecord
    from repro.core.restore_queue import RestoreQueue


class CachePut:
    """A claimed extent being filled — the cache's side of a store
    ``PutHandle``, so that a hop (``core/hop.py``) sees two endpoints of one
    type and every reservation is paired with its ``commit`` or ``abort``."""

    __slots__ = ("cache", "record", "link", "waited")

    def __init__(self, cache: "CacheBuffer", record, link, waited: float) -> None:
        self.cache, self.record, self.link = cache, record, link
        self.waited = waited  #: nominal seconds the claim waited for evictions

    def write(self, nbytes: int, cancelled=None, request=None) -> float:
        """Charge one chunk on the link that fills the extent (``None``: the
        other endpoint's charge carries the bytes — a store read)."""
        if self.link is None:
            return 0.0
        return self.link.transfer(nbytes, cancelled=cancelled, request=request)

    def commit(self, payload: np.ndarray, meta=None, copy: bool = True) -> None:
        """The extent stays unobservable (``*_IN_PROGRESS``) until it lands."""
        self.cache.write_payload(self.record, payload)

    def abort(self) -> None:
        self.cache.release(self.record)


class CacheGet:
    """A cached copy pinned as a hop's source: while ``read_pinned``, eviction
    cannot reclaim the extent underneath the transfer.  ``abort`` unpins."""

    __slots__ = ("cache", "inst")

    def __init__(self, cache: "CacheBuffer", inst: Instance) -> None:
        self.cache, self.inst = cache, inst

    def abort(self) -> None:
        with self.cache.monitor:
            self.inst.read_pinned -= 1
            self.cache.monitor.notify_all()


class CacheBuffer:
    """A managed cache tier (GPU or host) for one process."""

    def __init__(
        self,
        name: str,
        level: TierLevel,
        arena: Arena,
        monitor: Monitor,
        clock: VirtualClock,
        restore_queue: "RestoreQueue",
        flush_estimate: Callable[[int], float],
        policy=None,
        usable_capacity: Optional[Callable[[], int]] = None,
        pin_eta: Optional[Callable[[int], float]] = None,
        on_evict: Optional[Callable[["CheckpointRecord", "CacheBuffer"], None]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.name = name
        self.level = level
        self.arena = arena
        self.monitor = monitor
        self.clock = clock
        self.queue = restore_queue
        self.flush_estimate = flush_estimate
        self.policy = policy or ScorePolicy()
        self.usable_capacity = usable_capacity
        #: nominal seconds until a lazily-pinned arena's prefix reaches a size
        self.pin_eta = pin_eta
        self.on_evict = on_evict
        self.telemetry = telemetry or Telemetry.disabled()
        registry = self.telemetry.registry
        self._m_evictions = registry.counter(f"cache.{name}.evictions")
        self._m_forced = registry.counter(f"cache.{name}.forced_evictions")
        self._m_wait = registry.histogram(f"cache.{name}.eviction_wait_s")
        self._m_occupancy = registry.gauge(f"cache.{name}.occupancy")
        self._m_fragmentation = registry.gauge(f"cache.{name}.fragmentation")
        self.table = AllocTable(arena.nominal_capacity)
        #: Section 4.1.2 ablation: when set, write-path reservations are
        #: confined to ``[0, write_boundary)`` and prefetch-path ones to
        #: ``[write_boundary, capacity)`` — the "naive" statically split
        #: flush/prefetch cache the paper argues against.  ``None`` = the
        #: shared design.
        self.write_boundary: Optional[int] = None
        # counters
        self.evictions = 0
        self.forced_evictions = 0
        self.eviction_wait_time = 0.0
        #: running total of bytes held by pinned instances, maintained by
        #: per-instance trackers on every FSM transition (O(1) reads on the
        #: prefetcher's budget checks instead of a table scan).
        self._pinned_bytes = 0
        #: Algorithm 1's member costs, read inline by the scan; one table
        #: per eviction mode (``allow_pinned`` prices a pinned instance
        #: differently).  Pushed by the events that change them: every
        #: version bump of a cached instance drops its p (the tracker), and
        #: so does its removal (``_forget_instance``); the scan re-prices a
        #: dropped p once, so a flush estimate stays frozen until the next
        #: transition.  Distances are the queue's own :meth:`hint_index`.
        self.costs = (Costs(partial(self._fill, False)), Costs(partial(self._fill, True)))

    # -- helpers (monitor held) ---------------------------------------------
    def contains(self, record: "CheckpointRecord") -> bool:
        return self.table.contains(record.ckpt_id)

    def offset_of(self, record: "CheckpointRecord") -> int:
        return self.table.lookup(record.ckpt_id).offset

    def pinned_bytes(self) -> int:
        """Bytes held by prefetched-but-unconsumed instances."""
        with self.monitor:
            return self._pinned_bytes

    def within_budget(self, size: int, fraction: float) -> bool:
        """Monitor held: whether ``size`` more pinned bytes keep the
        prefetched-but-unconsumed total within ``fraction`` of the cache
        (the prefetch budget, the paper's anti-thrashing throttle)."""
        return self._pinned_bytes + size <= int(fraction * self.table.capacity)

    def scan_pinned_bytes(self) -> int:
        """O(n) recount of :meth:`pinned_bytes` (validator cross-check)."""
        with self.monitor:
            total = 0
            for frag in self.table.fragments():
                if frag.is_gap:
                    continue
                inst = frag.record.peek(self.level)
                if inst is not None and inst.pinned:
                    total += frag.size
            return total

    def _make_tracker(self, record: "CheckpointRecord"):
        """Per-instance version-bump hook: drops the instance's memoised p
        and keeps the pinned-byte total."""
        size = record.physical_size
        ckpt_id = record.ckpt_id
        plain, forced = (costs.p for costs in self.costs)

        def tracker(inst: Instance, old: CkptState, new: CkptState, now: float) -> None:
            plain.pop(ckpt_id, None)
            forced.pop(ckpt_id, None)
            pinned_now = new in PINNED_STATES
            if (old in PINNED_STATES) != pinned_now:
                self._pinned_bytes += size if pinned_now else -size

        return tracker

    def _forget_instance(self, record: "CheckpointRecord", inst: Instance) -> None:
        """Undo an instance's cache-side bookkeeping before it is dropped."""
        if inst.pinned:
            self._pinned_bytes -= record.physical_size
        inst.tracker = None
        for costs in self.costs:
            costs.p.pop(record.ckpt_id, None)

    def _limit(self) -> int:
        """Bytes of the arena usable now: a lazily-pinned arena's prefix."""
        return self.table.capacity if self.usable_capacity is None else self.usable_capacity()

    def ramp_wait(self, record: "CheckpointRecord", state: CkptState) -> Optional[float]:
        """Monitor held: nominal seconds until the growing pinned prefix
        opens room for ``record`` claimed in ``state`` — growth is
        clock-driven and notifies nobody, so a wait on it is a deadline —
        or ``None`` when the arena is not ramping or the room is already
        pinned.  The room is the first gap that fits, or, with none in the
        whole table (an eviction window past the prefix may fit), another
        ``record``'s size of prefix."""
        usable = self._limit()
        if self.pin_eta is None or usable >= self.table.capacity:
            return None
        size = record.physical_size
        min_offset, region_limit = self._region_for(state)
        place = self.table.find_gap(size, region_limit, min_offset)
        end = min(usable + size, self.table.capacity) if place is None else place + size
        eta = self.pin_eta(end)
        return eta if eta > 0 else None

    def _fill(self, allow_pinned: bool, record: "CheckpointRecord") -> int:
        """Price a member the scan found without a memoised p."""
        ts = instance_state_ts(record, self.level, self.flush_estimate, allow_pinned=allow_pinned)
        p = self.costs[allow_pinned].p[record.ckpt_id] = BARRIER if ts == NEVER else exact(ts)
        return p

    def scan_costs(self, allow_pinned: bool) -> Costs:
        """Monitor held: the cost table for one scan, with the queue's
        current distances.  The s of an unhinted checkpoint must dominate
        every real distance: the queue can never hold more live hints than
        the table has fragments plus the whole history, so table length +
        queue length is a safe bound."""
        costs = self.costs[allow_pinned]
        costs.s = self.queue.hint_index()
        costs.no_hint = float(len(self.table) + len(self.queue) + 1)
        costs.gap_s = costs.no_hint + 1.0
        return costs

    # -- reservation -----------------------------------------------------------
    def reserve(
        self,
        record: "CheckpointRecord",
        initial_state: CkptState,
        blocking: bool = True,
        allow_pinned: bool = False,
        speculative: bool = False,
        budget_fraction: Optional[float] = None,
        keep_nearer: bool = False,
    ) -> Optional[float]:
        """Claim space for ``record`` and create its instance on this tier.

        Blocks (releasing the monitor while waiting) until space can be
        made; returns the nominal seconds spent waiting for evictions (the
        figure callers charge to blocking-time metrics).  With
        ``blocking=False`` returns ``None`` instead of waiting — only
        windows that are evictable *right now* are used.  With
        ``allow_pinned=True`` (demand restores deviating from the hints)
        prefetched-but-unconsumed instances may be force-evicted, provided a
        copy survives on a slower tier.  ``speculative=True`` marks the new
        instance as a predicted (revocable) staging — see
        :attr:`~repro.core.lifecycle.Instance.speculative`.

        The two prefetch-claim terms: ``budget_fraction`` refuses the claim
        (``None``, like a non-blocking miss) when it would take the pinned
        bytes past that fraction of the cache — checked in the same monitor
        section that pins the extent, so concurrent prefetch workers cannot
        both slip under the budget; ``keep_nearer=True`` (a store→host
        staging) makes every unconsumed checkpoint hinted nearer than
        ``record`` an eviction barrier, because Algorithm 1's s-score alone
        prefers to evict exactly those.

        Space is claimed at the record's physical (reduced) size, identical
        to ``nominal_size`` when reduction is off.
        """
        size = record.physical_size
        if size > self.table.capacity:
            raise CapacityError(
                f"checkpoint {record.ckpt_id} ({size}B) exceeds cache "
                f"{self.name!r} capacity {self.table.capacity}B"
            )
        min_offset, region_limit = self._region_for(initial_state)
        if region_limit is not None and size > region_limit - min_offset:
            raise CapacityError(
                f"checkpoint {record.ckpt_id} ({size}B) exceeds the "
                f"{initial_state.value} partition of cache {self.name!r}"
            )
        wait_started: Optional[float] = None
        with self.monitor:
            while True:
                if self.table.contains(record.ckpt_id):
                    raise AllocationError(
                        f"checkpoint {record.ckpt_id} already cached in {self.name!r}"
                    )
                if budget_fraction is not None and not self.within_budget(
                    size, budget_fraction
                ):
                    return None
                usable = self._limit()
                limit = usable if region_limit is None else min(usable, region_limit)
                offset = self.table.find_gap(size, limit, min_offset)
                if offset is None:
                    offset = self._try_evict_window(
                        size, limit, allow_pinned, min_offset,
                        keep_nearer_than=record.ckpt_id if keep_nearer else None,
                    )
                if offset is not None:
                    now = self.clock.now()
                    inst = record.instance(self.level)
                    inst.tracker = self._make_tracker(record)
                    inst.speculative = speculative
                    inst.transition(initial_state, now)
                    self.table.insert(record, size, offset, now)
                    waited = 0.0
                    if wait_started is not None:
                        waited = self.clock.now() - wait_started
                        self.eviction_wait_time += waited
                        self._m_wait.observe(waited)
                    self._observe_occupancy()
                    self.monitor.notify_all()
                    return waited
                if not blocking:
                    return None
                if wait_started is None:
                    wait_started = self.clock.now()
                # Notification-driven re-evaluation: every transition,
                # flush-pending/read-pinned flip, hint change and eviction
                # notifies the monitor; a lazily-pinned arena's growth
                # does not, so while it ramps the wait is the ramp's
                # deadline (none while the search saw a part of the arena:
                # the room was pinned since, search again).
                ramp = self.ramp_wait(record, initial_state)
                if ramp is not None or usable >= self.table.capacity:
                    self.monitor.wait(ramp)

    def open_put(self, record: "CheckpointRecord", state: CkptState, link, **claim):
        """:meth:`reserve` (``claim``: its terms) as a :class:`CachePut`
        charging ``link`` per chunk; ``None`` when the claim was refused."""
        waited = self.reserve(record, state, **claim)
        return None if waited is None else CachePut(self, record, link, waited)

    def open_get(self, record: "CheckpointRecord") -> CacheGet:
        """Pin this tier's complete copy of ``record`` as a transfer source;
        :class:`TransferError` when it vanished (the caller re-resolves)."""
        with self.monitor:
            inst = record.peek(self.level)
            if inst is None or not inst.has_copy:
                raise TransferError(
                    f"{self.level.name.lower()} copy of checkpoint {record.ckpt_id} "
                    "vanished before promotion"
                )
            inst.read_pinned += 1
        return CacheGet(self, inst)

    def _region_for(self, initial_state: CkptState):
        """Placement region for a reservation kind (split-cache ablation)."""
        if self.write_boundary is None:
            return 0, None
        if initial_state is CkptState.READ_IN_PROGRESS:
            return self.write_boundary, None
        return 0, self.write_boundary

    def _try_evict_window(
        self,
        size: int,
        limit: Optional[int],
        allow_pinned: bool,
        min_offset: int = 0,
        keep_nearer_than: Optional[int] = None,
    ) -> Optional[int]:
        """Select the best window; evict it if ready.  Monitor held.

        Returns the gap offset on success, ``None`` if the caller must wait
        (members not yet evictable or no admissible window).  With
        ``keep_nearer_than`` (the incoming checkpoint's id) no window may
        hold an unconsumed checkpoint hinted nearer than it.
        """
        fragments = self.table.fragments()
        costs = self.scan_costs(allow_pinned)
        # A member's s *is* its prefetch distance (unhinted members and gaps
        # score above every distance), so "hinted nearer than the incoming
        # checkpoint" is "s below its distance".  An incoming checkpoint
        # that lost its hint meanwhile evicts nothing.
        keep_nearer = 0
        if keep_nearer_than is not None:
            own = self.queue.distance(keep_nearer_than)
            keep_nearer = math.inf if own is None else own
        window = self.policy.select(fragments, size, costs, limit, min_offset, keep_nearer)
        if window is None:
            return None
        if not self._window_ready(window, allow_pinned):
            return None
        if self.telemetry.bus.enabled:
            members = [
                {
                    "ckpt": frag.record.ckpt_id,
                    "bytes": frag.size,
                    "state": frag.record.peek(self.level).state.value
                    if frag.record.peek(self.level) is not None
                    else None,
                }
                for frag in fragments[window.start : window.end]
                if not frag.is_gap
            ]
            self.telemetry.bus.instant(
                "evict-window",
                self.name,
                p_score=window.p_score,
                s_score=window.s_score,
                offset=window.offset,
                bytes=window.size,
                incoming_bytes=size,
                forced=allow_pinned,
                members=members,
            )
        self._evict_window(window, allow_pinned)
        return self.table.find_gap(size, limit, min_offset)

    def _window_ready(self, window: Window, allow_pinned: bool) -> bool:
        for frag in self.table.fragments()[window.start : window.end]:
            if frag.is_gap:
                continue
            inst = frag.record.peek(self.level)
            if inst is None:
                continue
            if inst.read_pinned:
                return False  # an in-flight promotion reads this extent
            if inst.evictable and not inst.flush_pending:
                continue
            if inst.state == CkptState.READ_COMPLETE and (
                allow_pinned or (inst.speculative and not inst.flush_pending)
            ):
                # Forced demand eviction, or a revocable speculative
                # staging (never pinned — a wrong prediction would hold
                # the extent forever and starve the flush path).
                continue
            return False
        return True

    def _evict_window(self, window: Window, allow_pinned: bool) -> None:
        victims = [
            frag.record
            for frag in self.table.fragments()[window.start : window.end]
            if not frag.is_gap
        ]
        for record in victims:
            self._evict_record(record, force=allow_pinned)

    def _evict_record(self, record: "CheckpointRecord", force: bool) -> None:
        inst = record.peek(self.level)
        assert inst is not None, f"evicting {record.ckpt_id} with no instance"
        revocable = inst.speculative and inst.state == CkptState.READ_COMPLETE
        forced = inst.pinned and not revocable
        if forced and not force:
            raise AllocationError(
                f"attempt to evict pinned checkpoint {record.ckpt_id} from {self.name!r}"
            )
        if not record.consumed and not record.has_copy_besides(self.level):
            raise AllocationError(
                f"eviction of checkpoint {record.ckpt_id} from {self.name!r} "
                "would destroy its only copy"
            )
        self.table.remove(record.ckpt_id)
        self._forget_instance(record, inst)
        record.drop_instance(self.level)
        self.evictions += 1
        self._m_evictions.inc()
        if forced:
            self.forced_evictions += 1
            self._m_forced.inc()
        self.telemetry.bus.instant(
            "evict",
            self.name,
            op_id=record.op.op_id,
            ckpt=record.ckpt_id,
            bytes=record.physical_size,
            forced=forced,
        )
        if self.on_evict is not None:
            self.on_evict(record, self)

    def evict(self, record: "CheckpointRecord") -> None:
        """Explicitly evict (engine-driven, e.g. discard-after-consume)."""
        with self.monitor:
            if self.table.contains(record.ckpt_id):
                self._evict_record(record, force=True)
                self._observe_occupancy()
                self.monitor.notify_all()

    def release(self, record: "CheckpointRecord") -> None:
        """Drop a record's extent and instance without eviction accounting.

        The single teardown path for failed or abandoned reservations
        (vanished promotion sources, cancelled flush legs): it keeps the
        pinned-byte total and the cost tables consistent with the table,
        which direct ``table.remove`` + ``drop_instance`` calls would not.
        Tolerates partially-created state; notifies waiters.
        """
        with self.monitor:
            held = self.table.contains(record.ckpt_id)
            if held:
                self.table.remove(record.ckpt_id)
            inst = record.peek(self.level)
            if inst is not None:
                self._forget_instance(record, inst)
                record.drop_instance(self.level)
            if self.on_evict is not None and (held or inst is not None):
                self.on_evict(record, self)
            self._observe_occupancy()
            self.monitor.notify_all()

    # -- payload I/O -------------------------------------------------------------
    def read_payload(self, record: "CheckpointRecord", copy: bool = True) -> np.ndarray:
        """The record's payload bytes.  With ``copy=False`` returns a
        read-only view into the arena — only valid while the extent cannot
        be reclaimed (a pinned instance, or ``read_pinned`` held)."""
        with self.monitor:
            offset = self.offset_of(record)
        return self.arena.read(offset, record.physical_size, copy=copy)

    def write_payload(self, record: "CheckpointRecord", payload: np.ndarray) -> None:
        with self.monitor:
            offset = self.offset_of(record)
        self.arena.write(offset, payload)

    def _observe_occupancy(self) -> None:
        """Monitor held: refresh the occupancy/fragmentation gauges."""
        self._m_occupancy.set(self.table.used_bytes / self.table.capacity)
        self._m_fragmentation.set(self.fragmentation())

    # -- stats ----------------------------------------------------------------------
    def occupancy(self) -> float:
        with self.monitor:
            return self.table.used_bytes / self.table.capacity

    def fragmentation(self) -> float:
        """Share of free space unusable as one contiguous gap.

        ``0`` = all free bytes form one gap (or the cache is full);
        approaching ``1`` = free space is shattered into small gaps.
        Takes the monitor (re-entrant), so it is safe to call from any
        thread; the table's gap index makes it O(1).
        """
        with self.monitor:
            free = self.table.free_bytes
            if free == 0:
                return 0.0
            return 1.0 - self.table.largest_gap() / free

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CacheBuffer({self.name!r}, level={self.level.name})"
