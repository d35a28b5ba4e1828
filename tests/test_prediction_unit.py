"""Unit tests for the prediction subsystem: history ring, predictors,
speculation validator, and the synthetic restore queue overlay."""

from __future__ import annotations

import pytest

from repro.config import PredictConfig
from repro.predict import (
    AccessHistory,
    Candidate,
    HybridPredictor,
    MarkovPredictor,
    RecencyPredictor,
    SpeculationValidator,
    SyntheticRestoreQueue,
)
from repro.predict.history import KIND_CHECKPOINT, KIND_RESTORE, AccessEvent
from repro.predict.validation import HIT_FLOOR, MIN_SAMPLES, SUSPEND_S
from repro.telemetry import Telemetry


def restore(ts, ckpt, producer):
    return AccessEvent(ts=ts, kind=KIND_RESTORE, ckpt_id=ckpt, producer=producer)


def checkpoint(ts, ckpt, producer):
    return AccessEvent(ts=ts, kind=KIND_CHECKPOINT, ckpt_id=ckpt, producer=producer)


# -- config --------------------------------------------------------------------
class TestPredictConfig:
    def test_defaults_disabled(self):
        cfg = PredictConfig()
        assert not cfg.enabled


# -- history -------------------------------------------------------------------
class TestAccessHistory:
    def test_ring_bounds_and_total(self):
        hist = AccessHistory(capacity=4)
        for i in range(10):
            hist.record(float(i), KIND_RESTORE, i, producer=i % 2)
        assert len(hist) == 4
        assert hist.recorded == 10
        assert [e.ckpt_id for e in hist.recent(2)] == [8, 9]
        assert [e.ckpt_id for e in hist] == [6, 7, 8, 9]


# -- recency -------------------------------------------------------------------
class TestRecencyPredictor:
    def test_learns_periodic_gap(self):
        pred = RecencyPredictor(alpha=0.25)
        for i in range(6):
            pred.observe(restore(i * 10.0, ckpt=i, producer="a"))
        cands = [Candidate(ckpt_id=99, producer="a", created_ts=50.0)]
        out = pred.predict(cands, now=50.0)
        assert len(out) == 1
        assert out[0].ckpt_id == 99
        # Perfectly regular gaps: expected = last + gap, high confidence.
        assert out[0].expected_ts == pytest.approx(60.0)
        assert out[0].confidence > 0.5

    def test_irregular_gaps_lower_confidence(self):
        regular = RecencyPredictor(alpha=0.25)
        jittery = RecencyPredictor(alpha=0.25)
        jittery_ts = 0.0
        for i in range(8):
            regular.observe(restore(i * 10.0, ckpt=i, producer="a"))
            jittery.observe(restore(jittery_ts, ckpt=i, producer="a"))
            jittery_ts += 10.0 if i % 2 == 0 else 90.0
        cand = [Candidate(ckpt_id=1, producer="a", created_ts=0.0)]
        c_reg = regular.predict(cand, now=100.0)[0].confidence
        c_jit = jittery.predict(cand, now=300.0)[0].confidence
        assert c_reg > c_jit

    def test_cold_producer_uses_global_prior(self):
        pred = RecencyPredictor(alpha=0.25)
        for i in range(4):
            pred.observe(restore(i * 5.0, ckpt=i, producer="hot"))
        # "cold" suspended once at t=12, never restored.
        pred.observe(checkpoint(12.0, ckpt=40, producer="cold"))
        out = pred.predict(
            [Candidate(ckpt_id=40, producer="cold", created_ts=12.0)], now=13.0
        )
        assert out[0].confidence == pytest.approx(RecencyPredictor.COLD_CONFIDENCE)
        # Global gap EWMA is 5.0: expected = last activity + prior.
        assert out[0].expected_ts == pytest.approx(17.0)

    def test_soonest_expected_first(self):
        pred = RecencyPredictor(alpha=0.25)
        for i in range(4):
            pred.observe(restore(i * 2.0, ckpt=i, producer="fast"))
        for i in range(4):
            pred.observe(restore(i * 50.0, ckpt=10 + i, producer="slow"))
        out = pred.predict(
            [
                Candidate(ckpt_id=1, producer="slow", created_ts=150.0),
                Candidate(ckpt_id=2, producer="fast", created_ts=6.0),
            ],
            now=150.0,
        )
        assert [p.ckpt_id for p in out] == [2, 1]


# -- markov --------------------------------------------------------------------
class TestMarkovPredictor:
    def test_follows_deterministic_cycle(self):
        pred = MarkovPredictor()
        # a -> b -> c -> a, twice around.
        for t, producer in enumerate(["a", "b", "c", "a", "b", "c", "a"]):
            pred.observe(restore(float(t), ckpt=t, producer=producer))
        cands = [
            Candidate(ckpt_id=101, producer="b", created_ts=5.0),
            Candidate(ckpt_id=102, producer="c", created_ts=5.0),
        ]
        out = pred.predict(cands, now=7.0)
        # Last restore was "a": the chain predicts b then c.
        assert [p.ckpt_id for p in out] == [101, 102]
        assert out[0].confidence == pytest.approx(1.0)
        assert out[0].expected_ts < out[1].expected_ts

    def test_newest_candidate_per_producer_wins(self):
        pred = MarkovPredictor()
        pred.observe(restore(0.0, ckpt=0, producer="a"))
        pred.observe(restore(1.0, ckpt=1, producer="b"))
        pred.observe(restore(2.0, ckpt=2, producer="a"))
        cands = [
            Candidate(ckpt_id=7, producer="b", created_ts=1.0),
            Candidate(ckpt_id=9, producer="b", created_ts=3.0),
        ]
        out = pred.predict(cands, now=3.0)
        assert out and out[0].ckpt_id == 9

    def test_no_history_no_predictions(self):
        pred = MarkovPredictor()
        assert pred.predict(
            [Candidate(ckpt_id=1, producer="a", created_ts=0.0)], now=0.0
        ) == []


class TestHybridPredictor:
    def test_markov_leads_recency_fills(self):
        pred = HybridPredictor(alpha=0.25)
        # "c" only has recency data; the restore stream then settles into
        # the structured transition a -> b and ends on "a".
        pred.observe(restore(0.0, ckpt=20, producer="c"))
        pred.observe(restore(1.0, ckpt=21, producer="c"))
        for t, producer in enumerate(["a", "b", "a", "b", "a"]):
            pred.observe(restore(2.0 + t, ckpt=t, producer=producer))
        cands = [
            Candidate(ckpt_id=31, producer="b", created_ts=6.0),
            Candidate(ckpt_id=32, producer="c", created_ts=1.0),
        ]
        out = pred.predict(cands, now=7.0)
        ids = [p.ckpt_id for p in out]
        assert ids[0] == 31  # markov: a -> b
        assert 32 in ids  # recency fills the rest
        assert len(ids) == len(set(ids))  # deduped


# -- validation ----------------------------------------------------------------
def make_validator():
    return SpeculationValidator(Telemetry(enabled=True), track="t")


class TestSpeculationValidator:
    def test_hits_keep_speculation_active(self):
        val = make_validator()
        for ckpt in range(MIN_SAMPLES + 2):
            val.on_staged(ckpt, 100, now=float(ckpt))
            val.on_consume(ckpt, now=float(ckpt) + 0.5)
        assert val.active(now=10.0)
        assert val.hit_rate() == pytest.approx(1.0)
        assert val.confidence_scale() == pytest.approx(1.0)

    def test_staging_idempotent_per_chain(self):
        val = make_validator()
        val.on_staged(1, 100, now=0.0)
        val.on_staged(1, 100, now=0.1)  # second hop of the same chain
        val.on_consume(1, now=1.0)
        assert val.stats()["hits"] == 1
        assert val.samples == 1

    def test_unknown_outcomes_ignored(self):
        val = make_validator()
        val.on_consume(5, now=1.0)  # never staged: demand restore
        val.on_abandoned(6, now=1.0)  # never staged: normal eviction
        assert val.samples == 0

    def test_wastes_suspend_then_probation(self):
        val = make_validator()
        for ckpt in range(MIN_SAMPLES):
            val.on_staged(ckpt, 100, now=float(ckpt))
            val.on_abandoned(ckpt, now=float(ckpt) + 0.5)
        last = MIN_SAMPLES - 0.5
        assert not val.active(now=last + 0.5)  # suspended: all wastes
        assert val.stats()["suspensions"] == 1
        assert not val.active(now=last + SUSPEND_S - 0.5)
        # The window elapses: probation resets the estimate.
        assert val.active(now=20.0)
        assert val.hit_rate() is None
        assert val.samples == 0

    def test_decayed_accuracy_scales_confidence(self):
        val = make_validator()
        outcomes = [1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0]
        assert len(outcomes) >= MIN_SAMPLES
        for ckpt, outcome in enumerate(outcomes):
            val.on_staged(ckpt, 100, now=float(ckpt))
            if outcome:
                val.on_consume(ckpt, now=float(ckpt) + 0.5)
            else:
                val.on_abandoned(ckpt, now=float(ckpt) + 0.5)
        scale = val.confidence_scale()
        assert HIT_FLOOR < scale < 1.0
        assert scale == pytest.approx(val.hit_rate())
        assert val.active(now=10.0)  # above the floor: never suspended


# -- synthetic queue -----------------------------------------------------------
class TestSyntheticRestoreQueue:
    def make(self):
        return SyntheticRestoreQueue(telemetry=Telemetry(enabled=True))

    def test_overlay_auto_starts_and_orders(self):
        q = self.make()
        assert not q.started
        assert q.refresh([(3, 0.9), (1, 0.5)])
        assert q.started
        assert q.head() == 3
        assert q.upcoming(4) == [3, 1]
        assert len(q) == 2
        assert q.distance(3) == 0 and q.distance(1) == 1
        assert q.is_hinted(3) and not q.is_explicit(3)
        assert q.confidence(3) == pytest.approx(0.9)

    def test_explicit_hints_outrank_overlay(self):
        q = self.make()
        q.refresh([(3, 0.9), (1, 0.5)])
        q.enqueue(7)
        assert q.head() == 7
        assert q.upcoming(4) == [7, 3, 1]
        assert q.distance(3) == 1  # shifted past the live explicit hints
        assert q.is_explicit(7)

    def test_real_hint_revokes_overlay_entry(self):
        q = self.make()
        q.refresh([(3, 0.9), (1, 0.5)])
        q.enqueue(3)  # the application hints a predicted id
        assert q.is_explicit(3)
        assert q.upcoming(4) == [3, 1]
        assert q.confidence(3) is None

    def test_refresh_replaces_wholesale(self):
        q = self.make()
        q.refresh([(3, 0.9), (1, 0.5)])
        assert q.refresh([(5, 0.8)])
        assert q.upcoming(4) == [5]
        assert q.distance(3) is None
        assert 3 not in q.hint_index()
        assert 5 in q.hint_index()

    def test_refresh_filters_explicit_and_consumed(self):
        q = self.make()
        q.enqueue(7)
        q.start()
        q.consume(7)
        q.refresh([(7, 0.9), (2, 0.4), (2, 0.3)])
        assert q.upcoming(4) == [2]

    def test_synthetic_consume_counts_no_deviation(self):
        telemetry = Telemetry(enabled=True)
        q = SyntheticRestoreQueue(telemetry=telemetry)
        q.refresh([(3, 0.9), (1, 0.5)])
        q.consume(1)  # out of predicted order
        assert telemetry.registry.counter("hints.deviations").value == 0
        assert q.upcoming(4) == [3]
        # Consumed ids never re-enter the overlay.
        q.refresh([(1, 0.9), (3, 0.5)])
        assert q.upcoming(4) == [3]

    def test_epochs_bump_on_overlay_change(self):
        q = self.make()
        before = q.shift_epoch
        q.refresh([(3, 0.9)])
        assert q.shift_epoch > before
        mid = q.shift_epoch
        assert not q.refresh([(3, 0.1)])  # same order: no epoch churn
        assert q.shift_epoch == mid

    def test_enqueue_behind_a_live_overlay_moves_the_cached_distances(self):
        """An explicit hint ranks ahead of every overlay entry, so enqueuing
        one moves every overlay distance; the costs the eviction scan reads
        for cached overlay ids must move with them."""
        from repro.clock import VirtualClock
        from repro.config import ScaleModel
        from repro.core.cache import CacheBuffer
        from repro.core.catalog import CheckpointRecord
        from repro.core.lifecycle import CkptState
        from repro.core.sync import Monitor
        from repro.simgpu.memory import Arena
        from repro.tiers.base import TierLevel
        from repro.util.units import KiB, MiB

        clock = VirtualClock(time_scale=0.002)
        q = self.make()
        cache = CacheBuffer(
            "gpu", TierLevel.GPU,
            Arena("gpu", 4 * MiB, ScaleModel(data_scale=64 * KiB, alignment=64 * KiB)),
            Monitor(clock), clock, q, flush_estimate=lambda n: 0.0,
        )
        for ckpt_id in range(4):
            cache.reserve(CheckpointRecord(ckpt_id, MiB, MiB, 0), CkptState.WRITE_IN_PROGRESS)
        q.refresh([(0, 0.9), (1, 0.8), (2, 0.7), (3, 0.6)])

        def scanned():
            costs = cache.scan_costs(False)
            return [costs.cost(frag).s for frag in cache.table.fragments()]

        assert scanned() == [0, 1, 2, 3]
        for ckpt_id in (10, 11, 12):  # explicit hints for uncached ids
            q.enqueue(ckpt_id)
        assert [q.distance(ckpt_id) for ckpt_id in range(4)] == [3, 4, 5, 6]
        assert scanned() == [3, 4, 5, 6]


# -- overlay refresh wakes the prefetcher ---------------------------------------
class TestOverlayWakesParkedWorkers:
    #: nominal seconds a promotion may take once the checkpoints are in.
    DEADLINE_S = 10.0

    def test_first_predicted_entry_is_promoted(self):
        """No explicit hint ever: both workers park on the empty queue's
        hint condition, and only the overlay refresh of ``on_created`` can
        wake them — a lost notify leaves ``promotions`` at 0 for good."""
        from repro.core.engine import ScoreEngine
        from repro.tiers.topology import Cluster
        from repro.util.units import MiB
        from tests.conftest import make_buffer, tiny_config

        cluster = Cluster(tiny_config(predict=PredictConfig(enabled=True)))
        ctx = cluster.process_contexts()[0]
        with cluster, ScoreEngine(ctx) as engine:
            engine.clock.sleep(1.0)  # the workers find nothing and park
            with engine.monitor:
                assert not engine.queue.started and len(engine.queue) == 0
            for v in range(6):  # 4 GPU slots: the oldest wait on the host
                engine.checkpoint(v, make_buffer(ctx, 128 * MiB, seed=v))
                engine.wait_for_flushes(timeout=600.0)
            with engine.monitor:
                assert engine.queue.is_hinted(0) and not engine.queue.is_explicit(0)
                assert engine.monitor.wait_for(
                    lambda: engine.prefetcher.promotions >= 1, virtual_timeout=self.DEADLINE_S
                )
