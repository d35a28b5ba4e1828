"""PhoenixOS-style validation of speculative prefetches.

Speculation is cheap to attempt and cheap to validate: every speculative
staging (a promotion of a *predicted*, non-explicitly-hinted checkpoint)
is scored when its fate resolves — ``1`` when the checkpoint is consumed
by a restore (hit), ``0`` when the staged copy is evicted or released
unconsumed (abandon/waste).  An EWMA over outcomes decays the confidence
estimate toward the recent past; once at least ``min_samples`` outcomes
exist and the EWMA drops below ``hit_floor``, speculation is *suspended*:
the runtime empties the predicted overlay and the engine falls back to
demand-only promotion for ``SUSPEND_S`` nominal seconds, after which the
validator re-arms with a fresh estimate (probation).  Bad speculation
also yields first on a shared link: predicted entries always travel in
the sched speculative class, the lowest and the only preemptible one.

All methods are called under the engine monitor.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import PredictConfig
    from repro.telemetry import Telemetry

#: EWMA weight of the newest speculative outcome (the recency predictor's
#: inter-access EWMA uses it too).
EWMA_ALPHA = 0.25
#: nominal seconds of demand-only fallback per suspension.
SUSPEND_S = 2.0


class SpeculationValidator:
    """Scores speculative stagings; suspends speculation when they miss."""

    def __init__(
        self,
        cfg: "PredictConfig",
        telemetry: "Telemetry",
        track: str,
    ) -> None:
        self.cfg = cfg
        self.bus = telemetry.bus
        self.track = track
        #: ckpt_id -> staged bytes, for stagings whose fate is unresolved.
        self.outstanding: Dict[int, int] = {}
        self.ewma: Optional[float] = None
        self.samples = 0
        self.suspended_until: Optional[float] = None
        registry = telemetry.registry
        self._m_hits = registry.counter("predict.spec_hits")
        self._m_wastes = registry.counter("predict.spec_wastes")
        self._m_wasted_bytes = registry.counter("predict.spec_wasted_bytes")
        self._m_suspensions = registry.counter("predict.suspensions")
        self._m_hit_rate = registry.gauge("predict.hit_rate")

    # -- staging lifecycle -----------------------------------------------------
    def on_staged(self, ckpt_id: int, nbytes: int, now: float) -> None:
        """A speculative promotion landed a copy for ``ckpt_id``."""
        if ckpt_id in self.outstanding:
            return  # second hop of the same chain (SSD->host, host->GPU)
        self.outstanding[ckpt_id] = nbytes
        self.bus.instant(
            "spec-stage", self.track, ckpt=ckpt_id, bytes=nbytes
        )

    def on_consume(self, ckpt_id: int, now: float) -> None:
        """The checkpoint was restored; a pending speculation is a hit."""
        nbytes = self.outstanding.pop(ckpt_id, None)
        if nbytes is None:
            return
        self._m_hits.inc()
        self.bus.instant("spec-hit", self.track, ckpt=ckpt_id, bytes=nbytes)
        self._score(1.0, now)

    def on_abandoned(self, ckpt_id: int, now: float) -> None:
        """A staged-but-unconsumed copy was evicted: wasted speculation."""
        nbytes = self.outstanding.pop(ckpt_id, None)
        if nbytes is None:
            return
        self._m_wastes.inc()
        self._m_wasted_bytes.inc(nbytes)
        self.bus.instant("spec-waste", self.track, ckpt=ckpt_id, bytes=nbytes)
        self._score(0.0, now)

    # -- confidence ------------------------------------------------------------
    def hit_rate(self) -> Optional[float]:
        return self.ewma

    def confidence_scale(self) -> float:
        """Multiplier the runtime applies to predictor confidences: decayed
        accuracy throttles marginal predictions before the hard floor."""
        if self.ewma is None or self.samples < self.cfg.min_samples:
            return 1.0
        return max(self.ewma, self.cfg.hit_floor)

    def _score(self, value: float, now: float) -> None:
        self.ewma = value if self.ewma is None else (
            self.ewma + EWMA_ALPHA * (value - self.ewma)
        )
        self.samples += 1
        self._m_hit_rate.set(self.ewma)
        if (
            self.suspended_until is None
            and self.samples >= self.cfg.min_samples
            and self.ewma < self.cfg.hit_floor
        ):
            self.suspended_until = now + SUSPEND_S
            self._m_suspensions.inc()
            self.bus.instant(
                "spec-suspend",
                self.track,
                hit_rate=round(self.ewma, 4),
                until=self.suspended_until,
            )

    # -- suspension ------------------------------------------------------------
    def active(self, now: float) -> bool:
        """Whether speculation may run; re-arms after the suspend window."""
        if self.suspended_until is None:
            return True
        if now < self.suspended_until:
            return False
        # Probation: forget the poisoned estimate and try again.
        self.suspended_until = None
        self.ewma = None
        self.samples = 0
        self.outstanding.clear()
        self.bus.instant("spec-resume", self.track)
        return True

    def stats(self) -> dict:
        return {
            "outstanding": len(self.outstanding),
            "hits": self._m_hits.value,
            "wastes": self._m_wastes.value,
            "wasted_bytes": self._m_wasted_bytes.value,
            "hit_rate": None if self.ewma is None else round(self.ewma, 4),
            "suspensions": self._m_suspensions.value,
            "suspended": self.suspended_until is not None,
        }
