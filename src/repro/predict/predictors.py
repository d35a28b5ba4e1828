"""Next-restore predictors.

Two models, per the roadmap:

* :class:`RecencyPredictor` — a reuse-distance/recency model: per-producer
  EWMA of the inter-restore gap gives an expected next-access time;
  candidates are ordered soonest-expected first, with confidence derived
  from the regularity of the producer's gaps.
* :class:`MarkovPredictor` — a first-order Markov next-restore chain over
  producer transitions (checkpoint-id transitions when the application
  names no producer): from the last restored producer, repeatedly follow
  the argmax transition; confidence is the product of transition
  probabilities along the chain.

:class:`HybridPredictor` composes both: the Markov chain's confident
predictions lead (structured revisit patterns — revolve), recency ordering
fills the rest (periodic re-activation — serving).  All predictors observe
events incrementally and must be called under the engine monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from repro.predict.history import KIND_CHECKPOINT, KIND_RESTORE, AccessEvent


@dataclass(frozen=True)
class Candidate:
    """A live, unconsumed, unhinted checkpoint eligible for prediction."""

    ckpt_id: int
    producer: Hashable
    created_ts: float


@dataclass(frozen=True)
class Prediction:
    """One predicted restore: soonest-expected candidates rank first."""

    ckpt_id: int
    confidence: float
    expected_ts: float


class _ProducerStats:
    __slots__ = ("last_ts", "ewma_gap", "ewma_dev", "restores")

    def __init__(self) -> None:
        self.last_ts: Optional[float] = None
        self.ewma_gap: Optional[float] = None
        self.ewma_dev = 0.0
        self.restores = 0


class RecencyPredictor:
    """Reuse-distance/recency model: expected = last access + EWMA gap."""

    name = "recency"

    #: confidence of a producer seen only once (global-prior fallback).
    COLD_CONFIDENCE = 0.1

    def __init__(self, alpha: float = 0.25) -> None:
        self.alpha = alpha
        self._producers: Dict[Hashable, _ProducerStats] = {}
        #: population prior: EWMA of inter-restore gaps across all
        #: producers, used for producers with a single observation.
        self._global_gap: Optional[float] = None

    def observe(self, event: AccessEvent) -> None:
        if event.kind not in (KIND_CHECKPOINT, KIND_RESTORE):
            return
        stats = self._producers.get(event.producer)
        if stats is None:
            stats = self._producers[event.producer] = _ProducerStats()
        if event.kind == KIND_RESTORE:
            if stats.last_ts is not None:
                gap = max(event.ts - stats.last_ts, 0.0)
                if stats.ewma_gap is None:
                    stats.ewma_gap = gap
                else:
                    dev = abs(gap - stats.ewma_gap)
                    stats.ewma_dev += self.alpha * (dev - stats.ewma_dev)
                    stats.ewma_gap += self.alpha * (gap - stats.ewma_gap)
                if self._global_gap is None:
                    self._global_gap = gap
                else:
                    self._global_gap += self.alpha * (gap - self._global_gap)
            stats.restores += 1
        # Both kinds mark the producer active: a suspend (checkpoint)
        # restarts the countdown to its next re-activation.
        stats.last_ts = event.ts

    def _confidence(self, stats: _ProducerStats) -> float:
        if stats.ewma_gap is None:
            return self.COLD_CONFIDENCE
        if stats.ewma_gap <= 0.0:
            return 1.0
        # Regular gaps (low coefficient of variation) mean high confidence.
        regularity = 1.0 / (1.0 + stats.ewma_dev / stats.ewma_gap)
        # More observations, more trust (saturating).
        support = stats.restores / (stats.restores + 2.0)
        return regularity * support

    def predict(
        self, candidates: List[Candidate], now: float
    ) -> List[Prediction]:
        out: List[Prediction] = []
        for cand in candidates:
            stats = self._producers.get(cand.producer)
            last = cand.created_ts if stats is None or stats.last_ts is None \
                else stats.last_ts
            if stats is not None and stats.ewma_gap is not None:
                expected = last + stats.ewma_gap
                confidence = self._confidence(stats)
            elif self._global_gap is not None:
                expected = last + self._global_gap
                confidence = self.COLD_CONFIDENCE
            else:
                expected = last
                confidence = self.COLD_CONFIDENCE
            out.append(
                Prediction(
                    ckpt_id=cand.ckpt_id,
                    confidence=confidence,
                    expected_ts=expected,
                )
            )
        # Soonest expected restore first; creation order breaks ties so
        # the ranking is deterministic.
        out.sort(key=lambda p: (p.expected_ts, p.ckpt_id))
        return out


class MarkovPredictor:
    """First-order next-restore chain over producer transitions."""

    name = "markov"

    #: maximum chain length followed from the last restored producer.
    MAX_CHAIN = 8
    #: stop extending the chain below this cumulative probability.
    MIN_CHAIN_CONFIDENCE = 0.05

    def __init__(self) -> None:
        self._transitions: Dict[Hashable, Dict[Hashable, int]] = {}
        self._last: Optional[Hashable] = None

    def observe(self, event: AccessEvent) -> None:
        if event.kind != KIND_RESTORE:
            return
        if self._last is not None:
            row = self._transitions.setdefault(self._last, {})
            row[event.producer] = row.get(event.producer, 0) + 1
        self._last = event.producer

    def predict(
        self, candidates: List[Candidate], now: float
    ) -> List[Prediction]:
        # Newest live checkpoint per producer: the chain predicts the
        # producer, the candidate map resolves it to a restorable id.
        by_producer: Dict[Hashable, Candidate] = {}
        for cand in candidates:
            best = by_producer.get(cand.producer)
            if best is None or cand.created_ts > best.created_ts:
                by_producer[cand.producer] = cand
        out: List[Prediction] = []
        seen = set()
        current = self._last
        confidence = 1.0
        for step in range(self.MAX_CHAIN):
            row = self._transitions.get(current)
            if not row:
                break
            total = sum(row.values())
            ranked = sorted(row.items(), key=lambda kv: (-kv[1], str(kv[0])))
            nxt = None
            for producer, count in ranked:
                if producer in seen:
                    continue
                nxt = (producer, count / total)
                break
            if nxt is None:
                break
            producer, prob = nxt
            confidence *= prob
            if confidence < self.MIN_CHAIN_CONFIDENCE:
                break
            seen.add(producer)
            cand = by_producer.get(producer)
            if cand is not None:
                out.append(
                    Prediction(
                        ckpt_id=cand.ckpt_id,
                        confidence=confidence,
                        expected_ts=now + step,
                    )
                )
            current = producer
        return out


class HybridPredictor:
    """Markov chain leads, recency ordering fills the remainder."""

    name = "hybrid"

    def __init__(self, alpha: float = 0.25) -> None:
        self.recency = RecencyPredictor(alpha=alpha)
        self.markov = MarkovPredictor()

    def observe(self, event: AccessEvent) -> None:
        self.recency.observe(event)
        self.markov.observe(event)

    def predict(
        self, candidates: List[Candidate], now: float
    ) -> List[Prediction]:
        out: List[Prediction] = []
        taken = set()
        for pred in self.markov.predict(candidates, now):
            out.append(pred)
            taken.add(pred.ckpt_id)
        for pred in self.recency.predict(candidates, now):
            if pred.ckpt_id not in taken:
                out.append(pred)
        return out
