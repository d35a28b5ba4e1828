"""Deterministic fault decisions derived from a :class:`FaultConfig`.

A :class:`FaultPlan` is a pure function of the config: every decision —
whether a given transfer fails and after how many bytes, whether a tier is
inside an outage window, whether a stored blob lands corrupted, whether a
crash point fires — is computed from :func:`repro.util.rng.derive_seed`
over a stable label path, so the same config + seed reproduces the same
faults regardless of thread interleaving or wall-clock jitter.  The plan
holds no mutable state; sequence counters live in the per-link injectors
(:mod:`repro.faults.injector`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import FaultConfig
from repro.util.rng import derive_seed

#: 2**64, the denominator turning a derived 64-bit seed into a uniform.
_DENOM = float(1 << 64)
#: a failing transfer moves a fraction of its bytes drawn uniformly from
#: [MIN_FAULT_FRACTION, MAX_FAULT_FRACTION] before the error.
MIN_FAULT_FRACTION = 0.05
MAX_FAULT_FRACTION = 0.95


class FaultPlan:
    """Stateless, seeded fault decisions for one simulation run."""

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self.seed = config.seed

    def _uniform(self, *labels) -> float:
        """Deterministic uniform in [0, 1) for a label path."""
        return derive_seed(self.seed, *labels) / _DENOM

    # -- transient transfer faults ----------------------------------------
    def transfer_fault(self, link_name: str, seq: int, nbytes: int) -> Optional[int]:
        """Bytes after which transfer ``seq`` on ``link_name`` (any link)
        fails, or ``None`` when this transfer completes cleanly."""
        cfg = self.config
        if cfg.transfer_fault_rate <= 0.0 or nbytes <= 0:
            return None
        if self._uniform("xfer", link_name, seq) >= cfg.transfer_fault_rate:
            return None
        frac = MIN_FAULT_FRACTION + self._uniform(
            "xfer-frac", link_name, seq
        ) * (MAX_FAULT_FRACTION - MIN_FAULT_FRACTION)
        return max(1, min(nbytes - 1, int(frac * nbytes)))

    # -- tier outages / brownouts ------------------------------------------
    def outage(self, tier: str, now: float) -> Optional[float]:
        """The outage factor covering nominal time ``now`` for ``tier``:
        ``0.0`` = hard outage, ``0 < f < 1`` = brownout, ``None`` = healthy."""
        for entry_tier, start, end, factor in self.config.tier_outages:
            if entry_tier == tier and start <= now < end:
                return float(factor)
        return None

    # -- at-rest corruption -------------------------------------------------
    def corrupt(
        self, store: str, key: Tuple[int, int], attempt: int, length: int
    ) -> Optional[int]:
        """Byte offset to flip in the blob put for ``key`` (attempt-indexed,
        so a re-put after detection draws independently), or ``None``."""
        cfg = self.config
        if cfg.corruption_rate <= 0.0 or length <= 0:
            return None
        if self._uniform("rot", store, key[0], key[1], attempt) >= cfg.corruption_rate:
            return None
        return int(
            self._uniform("rot-at", store, key[0], key[1], attempt) * length
        ) % length

    # -- crash points -------------------------------------------------------
    def crash_matches(self, point: str, ckpt_id: int) -> bool:
        cfg = self.config
        if cfg.crash_point is None:
            return False
        want = cfg.crash_point
        if not want.startswith(("before-", "after-")):
            want = f"before-{want}"  # bare stage name == before-<stage>
        if want != point:
            return False
        return cfg.crash_ckpt is None or cfg.crash_ckpt == ckpt_id
