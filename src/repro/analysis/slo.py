"""SLO tracking: rolling-window latency objectives with burn-rate alerts.

Two objectives from :class:`~repro.config.SloConfig` — durability latency
(checkpoint entry → first durable copy) and demand-restore latency (the
blocked portion of ``restore()``) — each stated as "``objective`` of
operations meet the target".  An :class:`SloMonitor` consumes completions
either *live* (as a lifecycle observer of its engine — DESIGN.md §5 "Engine
shell" — it stamps the ``durable`` instant, samples as ops finish and
emits ``slo-breach`` / ``slo-burn`` trace instants) or *post hoc* (the
analyzer replays latencies out of a reconstructed op DAG, reading that same
``durable`` instant); both paths share the same rolling-window arithmetic,
so a live alert is reproducible from the saved trace.

Burn rate follows the usual error-budget form: with objective ``p``, the
budget is ``1 - p`` violations; the windowed violation rate divided by
that budget is the burn rate, and crossing ``burn_rate_threshold`` raises
an (edge-triggered) alert.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.config import SloConfig

#: observations required in the window before burn alerts can fire
#: (suppresses alerts off a single early violation).
MIN_SAMPLES = 8


class SloObjective:
    """One rolling-window latency objective."""

    def __init__(self, name: str, target_s: float, cfg: SloConfig) -> None:
        self.name = name
        self.target_s = target_s
        self.cfg = cfg
        self._window: Deque[Tuple[float, bool]] = deque()  # (ts, violated)
        self.total = 0
        self.violations = 0
        self.alerts = 0
        self.worst = 0.0
        self._alerting = False

    def observe(self, ts: float, latency: float) -> Optional[dict]:
        """Record one completion; returns a burn alert dict when one fires."""
        violated = latency > self.target_s
        self.total += 1
        self.worst = max(self.worst, latency)
        if violated:
            self.violations += 1
        window = self._window
        window.append((ts, violated))
        horizon = ts - self.cfg.window_s
        while window and window[0][0] < horizon:
            window.popleft()
        burn = self.burn_rate()
        firing = (
            len(window) >= MIN_SAMPLES
            and burn > self.cfg.burn_rate_threshold
        )
        alert = None
        if firing and not self._alerting:
            self.alerts += 1
            alert = {
                "slo": self.name,
                "ts": ts,
                "burn_rate": burn,
                "window_ops": len(window),
                "window_violations": sum(1 for _, v in window if v),
                "target_s": self.target_s,
            }
        self._alerting = firing
        return alert

    def burn_rate(self) -> float:
        """Windowed violation rate over the error budget ``1 - objective``."""
        window = self._window
        if not window:
            return 0.0
        rate = sum(1 for _, v in window if v) / len(window)
        return rate / (1.0 - self.cfg.objective)

    def snapshot(self) -> dict:
        return {
            "target_s": self.target_s,
            "objective": self.cfg.objective,
            "total": self.total,
            "violations": self.violations,
            "compliance": (
                (self.total - self.violations) / self.total if self.total else 1.0
            ),
            "worst_s": self.worst,
            "burn_rate": self.burn_rate(),
            "alerts": self.alerts,
        }

    def summary_line(self) -> str:
        s = self.snapshot()
        return (
            f"slo {self.name:<10} target {self.target_s:g}s @ {self.cfg.objective:.0%}: "
            f"{s['total'] - s['violations']}/{s['total']} met "
            f"({s['compliance']:.1%}), worst {s['worst_s']:.4g}s, "
            f"burn {s['burn_rate']:.2f}, alerts {s['alerts']}"
        )


class SloMonitor:
    """Both objectives plus (optional) live trace/metric emission."""

    def __init__(
        self, cfg: SloConfig, bus=None, track: str = "slo", registry=None, clock=None
    ) -> None:
        self.cfg = cfg
        self.bus = bus
        self.track = track
        self.clock = clock  # live observers only
        self.durability = SloObjective("durability", cfg.durability_target_s, cfg)
        self.restore = SloObjective("restore", cfg.restore_target_s, cfg)
        self._m_breach = registry.counter("slo.breaches") if registry else None
        self._m_alerts = registry.counter("slo.burn_alerts") if registry else None

    def _observe(self, objective: SloObjective, ts: float, latency: float, op_id=None):
        violated = latency > objective.target_s
        alert = objective.observe(ts, latency)
        if violated:
            if self._m_breach is not None:
                self._m_breach.inc()
            if self.bus is not None:
                self.bus.instant(
                    "slo-breach",
                    self.track,
                    op_id=op_id,
                    slo=objective.name,
                    latency=latency,
                    target=objective.target_s,
                )
        if alert is not None:
            if self._m_alerts is not None:
                self._m_alerts.inc()
            if self.bus is not None:
                self.bus.instant(
                    "slo-burn",
                    self.track,
                    slo=objective.name,
                    burn_rate=alert["burn_rate"],
                    window_ops=alert["window_ops"],
                    window_violations=alert["window_violations"],
                )
        return alert

    def observe_durability(self, ts: float, latency: float, op_id=None):
        return self._observe(self.durability, ts, latency, op_id=op_id)

    def observe_restore(self, ts: float, latency: float, op_id=None):
        return self._observe(self.restore, ts, latency, op_id=op_id)

    # -- lifecycle observer (monitor released) ------------------------------
    def after_landed(self, record, where, first_durable: bool, track) -> None:
        """The first durable landing of a traced checkpoint: stamp the
        ``durable`` instant on the landing stage's track and sample the
        durability latency at the same reading of the clock."""
        op = record.op
        if not first_durable or op.op_id is None:
            return
        now = self.clock.now()
        level = where.level.name
        op.instant("durable", track=track, tier=level.lower(), level=level)
        self.observe_durability(now, now - op.start, op_id=op.op_id)

    def after_restored(self, record, blocked: float, op) -> None:
        self.observe_restore(self.clock.now(), blocked, op_id=op.op_id)

    def snapshot(self) -> dict:
        return {
            "durability": self.durability.snapshot(),
            "restore": self.restore.snapshot(),
        }

    def summary_lines(self) -> List[str]:
        return [self.durability.summary_line(), self.restore.summary_line()]


def evaluate_dag(dag, cfg: SloConfig) -> SloMonitor:
    """Replay a reconstructed DAG's latencies through a fresh monitor.

    Durability latency per checkpoint op = first ``durable`` instant minus
    op start (checkpoints that never reached a durable tier in the trace
    window are skipped); restore latency = the restore op's wall window.
    Completions are replayed in timestamp order so the rolling windows
    behave exactly as they would have live.
    """
    monitor = SloMonitor(cfg)
    completions = []
    for op in dag.by_kind("checkpoint"):
        durable_at = op.durable_at()
        if durable_at is not None:
            completions.append((durable_at, "durability", durable_at - op.start, op.op_id))
    for op in dag.by_kind("restore"):
        completions.append((op.end, "restore", op.wall, op.op_id))
    for ts, which, latency, op_id in sorted(completions):
        if which == "durability":
            monitor.observe_durability(ts, latency, op_id=op_id)
        else:
            monitor.observe_restore(ts, latency, op_id=op_id)
    return monitor
