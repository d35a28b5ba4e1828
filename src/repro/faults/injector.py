"""Runtime attachment of a :class:`FaultPlan` to links, stores and engines.

The :class:`FaultDomain` is cluster-wide (one per
:class:`~repro.tiers.topology.Cluster`): it owns the plan, attaches a
:class:`LinkFaultInjector` to every Link (same hook discipline as the QoS
scheduler — a ``link.fault_injector`` attribute that is ``None`` when
disabled, so the hot path pays one attribute check), gates tier stores
through outage windows, decides at-rest corruption per put, and arms the
one-shot crash points the flusher trips between stages.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.config import FaultConfig, ResilienceConfig
from repro.errors import TierOfflineError, TransientTransferError
from repro.faults.plan import FaultPlan
from repro.telemetry import Telemetry


class LinkFaultInjector:
    """Per-link transfer-fault source: a thread-safe transfer sequence
    counter over the shared plan, so fault decisions are deterministic per
    (link, arrival order)."""

    def __init__(self, name: str, plan: FaultPlan,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.name = name
        self.plan = plan
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._seq = 0
        self.faults_injected = 0

    def draw(self, nbytes: int) -> Optional[int]:
        """Called at transfer start: bytes after which this transfer fails,
        or ``None`` for a clean transfer."""
        with self._lock:
            seq = self._seq
            self._seq += 1
        return self.plan.transfer_fault(self.name, seq, nbytes)

    def fault(self, nbytes: int, moved: int) -> TransientTransferError:
        """Build the error for a fault that just fired (also counts it)."""
        with self._lock:
            self.faults_injected += 1
        if self.telemetry is not None:
            self.telemetry.bus.instant(
                "fault-transfer", track="faults", link=self.name,
                nbytes=nbytes, moved=moved,
            )
            self.telemetry.registry.counter("faults.transfer").inc()
        return TransientTransferError(
            f"injected transfer fault on {self.name} after "
            f"{moved}/{nbytes} bytes",
            bytes_moved=moved,
        )


class FaultDomain:
    """Cluster-wide fault-injection state and attachment points."""

    def __init__(
        self,
        config: FaultConfig,
        resilience: ResilienceConfig,
        clock,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config
        self.resilience = resilience
        self.clock = clock
        self.telemetry = telemetry
        self.enabled = config.enabled
        self.plan = FaultPlan(config) if config.enabled else None
        #: stores stamp blobs with a pristine CRC whenever either side of
        #: the subsystem is active (injection needs it detectable, recovery
        #: needs it verifiable).
        self.meta_crc = config.enabled or resilience.enabled
        self._lock = threading.Lock()
        self._put_attempts: Dict[Tuple[str, int, int], int] = {}
        self._crash_fired = False
        self.outage_hits = 0
        self.corruptions = 0
        self.crashes = 0

    # -- link transfer faults ----------------------------------------------
    def attach(self, link) -> None:
        """Hook a link (no-op unless transfer faults are configured)."""
        if not self.enabled or self.config.transfer_fault_rate <= 0.0:
            return
        if not self.plan.link_matches(link.name):
            return
        link.fault_injector = LinkFaultInjector(link.name, self.plan, self.telemetry)

    # -- tier outages -------------------------------------------------------
    def tier_gate(self, tier: str, track: str, op: str, key) -> float:
        """Gate a store operation against outage windows.

        Raises :class:`TierOfflineError` inside a hard-outage window;
        returns a slowdown multiplier (``>= 1``) during a brownout, ``1.0``
        when healthy.
        """
        if not self.enabled or not self.config.tier_outages:
            return 1.0
        factor = self.plan.outage(tier, self.clock.now())
        if factor is None:
            return 1.0
        with self._lock:
            self.outage_hits += 1
        if self.telemetry is not None:
            self.telemetry.bus.instant(
                "fault-outage", track="faults", tier=track, op=op,
                factor=factor, key=list(key),
            )
            self.telemetry.registry.counter("faults.outage_hits").inc()
        if factor <= 0.0:
            raise TierOfflineError(f"{track} is offline (injected outage), {op} {key}")
        return 1.0 / factor

    def hard_outage(self, tier: str) -> bool:
        """Whether ``tier`` is inside a hard-outage window right now."""
        if not self.enabled or not self.config.tier_outages:
            return False
        return self.plan.outage(tier, self.clock.now()) == 0.0

    # -- at-rest corruption -------------------------------------------------
    def corruption(self, track: str, key, length: int) -> Optional[int]:
        """Byte offset to flip in the blob being put, or ``None``.

        Attempt-indexed per (store, key) so a re-put after detection draws
        an independent decision.
        """
        if not self.enabled or self.config.corruption_rate <= 0.0:
            return None
        attempt_key = (track, int(key[0]), int(key[1]))
        with self._lock:
            attempt = self._put_attempts.get(attempt_key, 0)
            self._put_attempts[attempt_key] = attempt + 1
        offset = self.plan.corrupt(track, key, attempt, length)
        if offset is None:
            return None
        with self._lock:
            self.corruptions += 1
        if self.telemetry is not None:
            self.telemetry.bus.instant(
                "fault-corrupt", track="faults", tier=track,
                key=list(key), offset=offset, attempt=attempt,
            )
            self.telemetry.registry.counter("faults.corruptions").inc()
        return offset

    # -- crash points -------------------------------------------------------
    def crash_point(self, point: str, ckpt_id: int) -> bool:
        """Whether the configured crash point fires here (at most once)."""
        if not self.enabled or self.config.crash_point is None:
            return False
        with self._lock:
            if self._crash_fired:
                return False
            if not self.plan.crash_matches(point, ckpt_id):
                return False
            self._crash_fired = True
            self.crashes += 1
        if self.telemetry is not None:
            self.telemetry.bus.instant(
                "fault-crash", track="faults", point=point, ckpt=ckpt_id,
            )
            self.telemetry.registry.counter("faults.crashes").inc()
        return True

    def stall_report(self) -> str:
        """A flush stall report's line on what was injected so far."""
        return f"injected {self.snapshot()}"

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "outage_hits": self.outage_hits,
                "corruptions": self.corruptions,
                "crashes": self.crashes,
            }
