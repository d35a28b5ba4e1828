"""Per-engine prediction orchestrator.

Owns the :class:`AccessHistory` ring, the predictor and the
:class:`SpeculationValidator`, and drives the
:class:`SyntheticRestoreQueue`'s overlay as a lifecycle observer of its
engine (DESIGN.md §5 "Engine shell"): ``on_created`` registers the new
version under its producer, ``on_consumed`` scores a pending speculation
and re-ranks, ``on_dropped`` abandons wasted stagings,
``on_speculative_staged`` arms the validator when the prefetcher lands a
predicted copy.  While the validator has speculation suspended the overlay
is kept empty — restores fall back to demand-only promotion until the
window passes.

Every ``on_*`` hook runs under the engine monitor, which the engine holds
when it announces the event.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, TYPE_CHECKING

from repro.predict.history import (
    AccessHistory,
    KIND_CHECKPOINT,
    KIND_EVICT,
    KIND_MISS,
    KIND_RESTORE,
)
from repro.predict.predictors import Candidate, HybridPredictor
from repro.predict.queue import SyntheticRestoreQueue
from repro.predict.validation import EWMA_ALPHA, SpeculationValidator
from repro.tiers.base import TierLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import CheckpointRecord
    from repro.core.sync import Monitor
    from repro.telemetry import Telemetry

#: capacity of the per-engine access-history ring (events).
HISTORY_CAPACITY = 4096
#: longest predicted overlay handed to the queue.
MAX_QUEUE = 32
#: predictions below this (validator-scaled) confidence leave the overlay.
MIN_CONFIDENCE = 0.02


class PredictRuntime:
    """Glue between the engine's lifecycle and the prediction models."""

    def __init__(
        self,
        queue: SyntheticRestoreQueue,
        monitor: "Monitor",
        telemetry: "Telemetry",
        process_id: int,
        clock,
    ) -> None:
        self.queue = queue
        self.monitor = monitor
        self.clock = clock
        self.track = f"p{process_id}-predict"
        self.history = AccessHistory(HISTORY_CAPACITY)
        #: the markov chain first, recency ordering for the rest.
        self.predictor = HybridPredictor(alpha=EWMA_ALPHA)
        self.validator = SpeculationValidator(telemetry, self.track)
        #: ckpt_id -> producer for every known checkpoint.
        self._producers: Dict[int, Hashable] = {}
        #: ckpt_id -> Candidate for live (unconsumed) checkpoints.
        self._live: Dict[int, Candidate] = {}
        registry = telemetry.registry
        self._m_spec_prefetches = registry.counter("predict.spec_prefetches")
        self._m_demand_misses = registry.counter("predict.demand_misses")

    def producer_of(self, ckpt_id: int) -> Hashable:
        return self._producers.get(ckpt_id, ckpt_id)

    # -- lifecycle observer (monitor held) -------------------------------------
    def _observe(self, kind: str, ckpt_id: int) -> float:
        """Record one access event and show it to the predictor; returns the
        event's timestamp."""
        now = self.clock.now()
        event = self.history.record(now, kind, ckpt_id, self.producer_of(ckpt_id))
        self.predictor.observe(event)
        return now

    def on_created(self, record: "CheckpointRecord", producer: Optional[Hashable]) -> None:
        # Default producer: the checkpoint id itself — the Markov model
        # then learns checkpoint-id transitions directly.
        producer = record.ckpt_id if producer is None else producer
        self._producers[record.ckpt_id] = producer
        now = self._observe(KIND_CHECKPOINT, record.ckpt_id)
        self._live[record.ckpt_id] = Candidate(
            ckpt_id=record.ckpt_id, producer=producer, created_ts=now
        )
        self.refresh(now)

    def on_consumed(self, record: "CheckpointRecord") -> None:
        """Scores a pending speculation as a hit and re-ranks the predicted
        overlay from the freshest history."""
        now = self._observe(KIND_RESTORE, record.ckpt_id)
        self.validator.on_consume(record.ckpt_id, now)
        self._live.pop(record.ckpt_id, None)
        self.refresh(now)

    def on_dropped(self, record: "CheckpointRecord", where) -> None:
        """An unconsumed speculative staging that loses its cached copy is
        abandoned speculation."""
        if record.consumed or where.level >= TierLevel.SSD:
            return  # post-consumption cleanup / a durable blob: no staging
        now = self._observe(KIND_EVICT, record.ckpt_id)
        self.validator.on_abandoned(record.ckpt_id, now)

    def on_speculative_staged(self, record: "CheckpointRecord") -> None:
        """Arms the validator: this staging is speculation whose fate
        (consume vs. abandon) scores the predictor."""
        if record.consumed:
            return
        self._m_spec_prefetches.inc()
        self.validator.on_staged(record.ckpt_id, record.nominal_size, self.clock.now())

    def on_demand_miss(self, record: "CheckpointRecord") -> None:
        self._observe(KIND_MISS, record.ckpt_id)
        self._m_demand_misses.inc()

    def on_forgotten(self, record: "CheckpointRecord") -> None:
        """A rolled-back checkpoint never existed for prediction."""
        self._producers.pop(record.ckpt_id, None)
        self._live.pop(record.ckpt_id, None)

    # -- overlay refresh -------------------------------------------------------
    def refresh(self, now: float) -> None:
        if self.queue.refresh(self._overlay(now)):
            # The hooks that refresh notify nobody themselves, and a worker
            # that found the queue empty parks on the hint condition.
            self.monitor.hints.notify_all()

    def _overlay(self, now: float) -> list:
        """The predicted overlay, best first: empty while speculation is
        suspended or nothing unhinted is live."""
        if not self.validator.active(now):
            return []
        candidates = [
            cand
            for ckpt_id, cand in self._live.items()
            if not self.queue.is_explicit(ckpt_id)
        ]
        if not candidates:
            return []
        scale = self.validator.confidence_scale()
        predictions = self.predictor.predict(candidates, now)
        overlay = [
            (p.ckpt_id, p.confidence * scale)
            for p in predictions
            if p.confidence * scale >= MIN_CONFIDENCE
        ]
        return overlay[:MAX_QUEUE]

    def stats(self) -> dict:
        return {
            "predictor": self.predictor.name,
            "overlay_depth": len(self.queue._syn_order),
            "live_candidates": len(self._live),
            "history_events": self.history.recorded,
            "spec_prefetches": self._m_spec_prefetches.value,
            "demand_misses": self._m_demand_misses.value,
            "validation": self.validator.stats(),
        }
