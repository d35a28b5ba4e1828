"""Checkpoint records and the per-engine catalog.

A :class:`CheckpointRecord` is the engine-wide identity of one checkpoint:
its nominal (aligned) and true sizes, its payload checksum, its per-tier
:class:`~repro.core.lifecycle.Instance` map, durability and consumption
status, and the cancellation flag that implements problem condition (5)
(pending flushes of a discarded checkpoint need not complete).

All mutation happens under the engine monitor.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.clock import Event
from repro.core.lifecycle import CkptState, Instance
from repro.errors import CheckpointNotFound, LifecycleError
from repro.telemetry.causal import NULL_OP
from repro.tiers.base import TierLevel

#: Catalog-level transition hook: ``(ckpt_id, instance, old, new, now)``.
#: Installed by the engine when tracing is enabled; see
#: :data:`repro.core.lifecycle.TransitionObserver` for the constraints.
CatalogTransitionHook = Callable[[int, Instance, CkptState, CkptState, float], None]


class CheckpointRecord:
    """Identity + state of one checkpoint across every tier."""

    def __init__(
        self,
        ckpt_id: int,
        nominal_size: int,
        true_size: int,
        checksum: int,
        on_transition: Optional[CatalogTransitionHook] = None,
    ) -> None:
        self.ckpt_id = ckpt_id
        self.nominal_size = nominal_size
        self.true_size = true_size
        self.checksum = checksum
        #: nominal bytes this checkpoint occupies on every tier and moves on
        #: every link: its reduced (physical) form.  Equals ``nominal_size``
        #: until a :class:`~repro.reduce.Reducer` encodes the record; always
        #: aligned.
        self.physical_size = nominal_size
        #: the reducer's :class:`~repro.reduce.pipeline.ReducedImage` (chunk
        #: recipe + delta lineage), or None when reduction is off / the
        #: record was never encoded.
        self.reduction = None
        self.instances: Dict[TierLevel, Instance] = {}
        #: slowest tier confirmed to hold a durable copy (SSD/PFS), if any.
        self.durable_level: Optional[TierLevel] = None
        #: the store object actually holding the durable copy when it is
        #: not the process's home store (e.g. a successor node's SSD after
        #: recovery from replication); None → the engine's default store.
        self.durable_store = None
        #: owning process id when this record was adopted from another
        #: engine (cluster service cross-node restore); None → this
        #: engine created the checkpoint, store keys use its own pid.
        self.home_pid: Optional[int] = None
        self.consumed = False
        self.discarded = False
        #: set to abandon in-flight flushes (checked chunk-wise by Link).
        self.cancel_flush = Event()
        #: the prefetcher is currently moving this checkpoint between tiers.
        self.prefetch_inflight = False
        #: causal handle of the ``checkpoint()`` that created this record
        #: (:class:`repro.telemetry.causal.OpTrace`); the no-op tracer for
        #: records adopted by recovery or when causal tracing is disabled.
        self.op = NULL_OP
        self._on_transition = on_transition

    # -- instances ---------------------------------------------------------
    def instance(self, level: TierLevel) -> Instance:
        """Get-or-create the instance for a tier (created in INIT)."""
        inst = self.instances.get(level)
        if inst is None:
            observer = None
            if self._on_transition is not None:
                hook, ckpt_id = self._on_transition, self.ckpt_id
                observer = lambda i, old, new, now: hook(ckpt_id, i, old, new, now)  # noqa: E731
            inst = Instance(level, observer=observer)
            self.instances[level] = inst
        return inst

    def peek(self, level: TierLevel) -> Optional[Instance]:
        return self.instances.get(level)

    def drop_instance(self, level: TierLevel) -> None:
        if level not in self.instances:
            raise LifecycleError(f"ckpt {self.ckpt_id} has no instance on {level!r}")
        del self.instances[level]

    # -- copy location queries ----------------------------------------------
    def cached_copy_levels(self) -> Iterable[TierLevel]:
        """Cache tiers (GPU/host) holding a complete copy, fastest first."""
        for level in (TierLevel.GPU, TierLevel.HOST):
            inst = self.instances.get(level)
            if inst is not None and inst.has_copy:
                yield level

    def fastest_cached_level(self) -> Optional[TierLevel]:
        for level in self.cached_copy_levels():
            return level
        return None

    def has_copy_besides(self, level: TierLevel) -> bool:
        """A complete copy exists somewhere other than ``level``.

        Durable store copies (SSD/PFS) count; used to assert that eviction
        never destroys the only copy of an unconsumed checkpoint.
        """
        if self.durable_level is not None and self.durable_level != level:
            return True
        return any(lv != level for lv in self.cached_copy_levels())

    def in_transfer(self) -> bool:
        """An extent of this record is being written or read in."""
        return any(
            inst.state in (CkptState.WRITE_IN_PROGRESS, CkptState.READ_IN_PROGRESS)
            for inst in self.instances.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        states = {lv.name: inst.state.value for lv, inst in self.instances.items()}
        return f"CheckpointRecord({self.ckpt_id}, {self.nominal_size}B, {states})"


class Catalog:
    """All checkpoints one engine knows about, keyed by checkpoint id."""

    def __init__(self, on_transition: Optional[CatalogTransitionHook] = None) -> None:
        self._records: Dict[int, CheckpointRecord] = {}
        self._on_transition = on_transition

    def create(
        self, ckpt_id: int, nominal_size: int, true_size: int, checksum: int
    ) -> CheckpointRecord:
        if ckpt_id in self._records:
            raise LifecycleError(
                f"checkpoint {ckpt_id} already exists; checkpoints are immutable"
            )
        record = CheckpointRecord(
            ckpt_id, nominal_size, true_size, checksum, on_transition=self._on_transition
        )
        self._records[ckpt_id] = record
        return record

    def get(self, ckpt_id: int) -> CheckpointRecord:
        record = self._records.get(ckpt_id)
        if record is None:
            raise CheckpointNotFound(f"unknown checkpoint id {ckpt_id}")
        return record

    def maybe_get(self, ckpt_id: int) -> Optional[CheckpointRecord]:
        return self._records.get(ckpt_id)

    def contains(self, ckpt_id: int) -> bool:
        return ckpt_id in self._records

    def forget(self, ckpt_id: int) -> None:
        """Remove a fully-discarded checkpoint from the catalog."""
        self._records.pop(ckpt_id, None)

    def __len__(self) -> int:
        return len(self._records)

    def all_records(self):
        return list(self._records.values())
