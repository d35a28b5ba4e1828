"""Cluster membership: node liveness, crash/rejoin chaos, partitions.

:class:`MembershipRegistry` is the fabric's view of which nodes are alive.
It drives the node-scoped fault events :class:`~repro.config.FaultConfig`
schedules (``node_crashes`` / ``node_rejoins`` / ``partitions``) and is
also the programmatic chaos entry point tests and benchmarks call
directly (:meth:`crash` / :meth:`rejoin`) so events land at deterministic
points regardless of the wall-driven virtual clock.

A node is in one of three states:

``up``
    serving reads, eligible as a replication-ring target.
``down``
    crashed.  Its engines raise :class:`~repro.errors.InjectedCrash`, its
    SSD raises :class:`~repro.errors.TierOfflineError` (fail-stop crashes
    also lose the media), and the replica directory has withdrawn every
    copy it held.
``joining``
    rejoined but still catching up.  The SSD is back online (power-loss
    crashes republish their surviving copies) and peers may read from it,
    but it stays out of the replication ring until the repairer's
    catch-up backfill finishes (:meth:`mark_up`).

Partitions are stateless window checks on the virtual clock — the same
discipline as PR 5's tier outages — so :meth:`reachable` costs two
comparisons per configured window and nothing is mutated when a window
opens or closes.

Everything here is inert until chaos is requested: with no scheduled
events, no partitions, and no manual :meth:`crash` call, ``active`` stays
False and the fabric's hot paths skip membership entirely, keeping the
disabled-config runtime bit-identical.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.cluster.fabric import ClusterFabric

UP = "up"
DOWN = "down"
JOINING = "joining"


class MembershipRegistry:
    """Node liveness registry + deterministic node-chaos driver."""

    def __init__(self, fabric: "ClusterFabric") -> None:
        self.fabric = fabric
        self.cluster = fabric.cluster
        self.clock = fabric.clock
        self.telemetry = fabric.telemetry
        self.num_nodes = fabric.num_nodes
        self._lock = threading.RLock()
        self._states: Dict[int, str] = {n: UP for n in range(self.num_nodes)}
        self._modes: Dict[int, str] = {}
        self._engines: Dict[int, List] = {n: [] for n in range(self.num_nodes)}
        faults_cfg = self.cluster.config.faults
        events = [
            (float(time_s), 0, "crash", node_id, mode)
            for node_id, time_s, mode in faults_cfg.node_crashes
        ]
        events += [
            (float(time_s), 1, "rejoin", node_id, None)
            for node_id, time_s in faults_cfg.node_rejoins
        ]
        self._partitions = tuple(
            (a, b, float(start), float(end)) for a, b, start, end in faults_cfg.partitions
        )
        self._events = sorted(events)
        #: chaos is (or has been) in play: scheduled events exist, a
        #: partition window is configured, or a manual crash fired.  The
        #: fabric's hot paths consult membership only when this is True.
        self.active = bool(self._events or self._partitions)
        registry = self.telemetry.registry
        self._m_crashes = registry.counter("cluster.membership.crashes")
        self._m_rejoins = registry.counter("cluster.membership.rejoins")
        self._m_degraded = registry.counter("cluster.membership.degraded_reads")
        self._m_live = registry.gauge("cluster.membership.live_nodes")
        self._m_live.set(self.num_nodes)

    # -- wiring ------------------------------------------------------------
    def register_engine(self, engine) -> None:
        """Engines register at construction so a node crash can kill them."""
        with self._lock:
            self._engines[engine.node_id].append(engine)

    # -- scheduled events --------------------------------------------------
    def tick(self) -> None:
        """Apply every scheduled event whose time has passed.

        Called from the fabric's routing points (peer reads, replication,
        service RPC hops, repair scans) — apply-on-observe, the same lazy
        discipline as tier-outage windows, so no background thread is
        needed and disabled runs pay one list check.
        """
        if not self._events:
            return
        now = self.clock.now()
        due = []
        with self._lock:
            while self._events and self._events[0][0] <= now:
                due.append(self._events.pop(0))
        for _t, _order, kind, node_id, mode in due:
            if kind == "crash":
                self.crash(node_id, mode)
            else:
                self.rejoin(node_id)

    # -- chaos entry points ------------------------------------------------
    def crash(self, node_id: int, mode: str = "fail-stop") -> None:
        """Fail a whole node: engines, SSD, and directory entries.

        ``mode`` is ``"fail-stop"`` (SSD media lost with the node) or
        ``"power-loss"`` (media survives for a later :meth:`rejoin`).
        Idempotent — crashing a down node is a no-op.
        """
        if mode not in ("fail-stop", "power-loss"):
            raise ConfigError(f"unknown node-crash mode {mode!r}")
        with self._lock:
            if self._states.get(node_id) == DOWN:
                return
            if node_id not in self._states:
                raise ConfigError(f"no node {node_id} in this cluster")
            self.active = True
            self._states[node_id] = DOWN
            self._modes[node_id] = mode
            engines = list(self._engines[node_id])
        # Kill the engines first so no new durable commits race the sweep,
        # then the media, then withdraw the directory entries.
        for engine in engines:
            engine.crashed.set()
            with engine.monitor:
                engine.monitor.notify_all()
        node = self.cluster.nodes[node_id]
        node.ssd.crash(preserve_contents=(mode == "power-loss"))
        withdrawn = self.fabric.directory.withdraw_node(node_id)
        self.fabric.repairer.note_withdrawn(withdrawn)
        self._m_crashes.inc()
        self._m_live.set(len(self.live_nodes()))
        self.telemetry.bus.instant(
            "node-crash",
            node.ssd.track,
            node=node_id,
            mode=mode,
            withdrawn=len(withdrawn),
        )

    def rejoin(self, node_id: int) -> None:
        """Bring a crashed node back.

        The SSD powers on (a power-loss crash republishes its surviving
        copies) and the node enters ``joining``: it runs catch-up backfill
        before re-entering the replication ring.  Idempotent for live nodes.
        """
        with self._lock:
            if self._states.get(node_id) != DOWN:
                return
            self._states[node_id] = JOINING
        node = self.cluster.nodes[node_id]
        restored = node.ssd.power_on()
        self._m_rejoins.inc()
        self._m_live.set(len(self.live_nodes()))
        self.telemetry.bus.instant(
            "node-rejoin",
            node.ssd.track,
            node=node_id,
            restored=len(restored),
        )
        self.fabric.repairer.backfill_node(node_id)

    def mark_up(self, node_id: int) -> None:
        """Promote a ``joining`` node to ``up`` (backfill finished)."""
        with self._lock:
            if self._states.get(node_id) == JOINING:
                self._states[node_id] = UP

    # -- queries -----------------------------------------------------------
    def state(self, node_id: int) -> str:
        with self._lock:
            return self._states[node_id]

    def is_up(self, node_id: int) -> bool:
        """Fully live: serving reads and in the replication ring."""
        with self._lock:
            return self._states.get(node_id) == UP

    def can_serve_reads(self, node_id: int) -> bool:
        """Readable: ``up`` or ``joining`` (its SSD is back online)."""
        with self._lock:
            return self._states.get(node_id) in (UP, JOINING)

    def in_ring(self, node_id: int) -> bool:
        """Eligible as a replication/repair target (``up`` only)."""
        return self.is_up(node_id)

    def live_nodes(self) -> List[int]:
        with self._lock:
            return sorted(
                n for n, state in self._states.items() if state != DOWN
            )

    def reachable(self, node_a: int, node_b: int) -> bool:
        """Whether fabric traffic can flow between two nodes right now.

        Pairwise partition windows are end-exclusive (``start <= now <
        end``) stateless checks, mirroring tier-outage windows.
        """
        if not self._partitions:
            return True
        now = self.clock.now()
        pair = {node_a, node_b}
        for a, b, start, end in self._partitions:
            if {a, b} == pair and start <= now < end:
                return False
        return True

    def note_degraded_read(self) -> None:
        """Count a read that had holders but none reachable (PFS-only)."""
        self._m_degraded.inc()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "states": dict(self._states),
                "live": [n for n, s in self._states.items() if s != DOWN],
                "pending_events": len(self._events),
            }
