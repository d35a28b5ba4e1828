"""Anti-entropy replica repair: restore ``replica_factor`` after a crash.

When a node dies, :class:`~repro.cluster.membership.MembershipRegistry`
withdraws every SSD copy it held, leaving checkpoints under-replicated
(or, when every holder died, with no SSD copy at all).  The
:class:`ReplicaRepairer` closes that gap: it scans the replica directory
for keys with fewer live holders than ``replica_factor``, picks
replacement targets along the placement ring, and re-replicates each blob
from a surviving SSD holder — or from the PFS when no holder survived.

Repair traffic is paced through the existing QoS machinery: every copy is
tagged with ``ClusterConfig.repair_class`` (``CASCADE_FLUSH`` by
default), so on scheduled links a demand restore always preempts or
outranks repair, and ``repair_max_inflight`` bounds the burst one scan
can inject after a mass withdrawal.

The repairer also runs the rejoin path's catch-up backfill
(:meth:`backfill_node`): a node coming back copies everything its ring
position says it should hold before the membership registry returns it
to the replication ring.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.cluster.directory import StoreKey
from repro.core.hop import copy_whole
from repro.errors import ReproError
from repro.sched.request import TransferClass

if TYPE_CHECKING:
    from repro.cluster.fabric import ClusterFabric

#: telemetry track repair spans land on.
REPAIR_TRACK = "cluster-repair"


class ReplicaRepairer:
    """Re-replicates under-replicated checkpoints until factor is met."""

    def __init__(self, fabric: "ClusterFabric") -> None:
        self.fabric = fabric
        self.cluster = fabric.cluster
        self.config = fabric.config
        self.clock = fabric.clock
        self.telemetry = fabric.telemetry
        self._gpus_per_node = self.cluster.config.hardware.gpus_per_node
        self._tclass = TransferClass[self.config.repair_class]
        self._lock = threading.Lock()
        #: keys whose last live SSD holder died; only the PFS can seed the
        #: re-replication (the directory no longer tracks them).
        self._lost: set = set()
        self.repaired = 0
        registry = self.telemetry.registry
        self._m_copies = registry.counter("cluster.repair.copies")
        self._m_bytes = registry.counter("cluster.repair.bytes")
        self._m_failures = registry.counter("cluster.repair.failures")
        self._m_backfills = registry.counter("cluster.repair.backfills")
        self._m_pending = registry.gauge("cluster.repair.pending")

    # -- placement ---------------------------------------------------------
    def _home_node(self, key: StoreKey) -> int:
        """The node of the key's home process (pid = node*gpus + rank)."""
        return key[0] // self._gpus_per_node

    def _desired_holders(
        self, key: StoreKey, include: Optional[int] = None
    ) -> List[int]:
        """Ring placement over in-ring nodes: home node first, then its
        successors, skipping dead/joining nodes, ``replica_factor`` deep.

        ``include`` treats one extra node as ring-eligible — the rejoin
        backfill computes the placement its still-``joining`` node is
        about to assume.
        """
        membership = self.fabric.membership
        home = self._home_node(key)
        desired: List[int] = []
        for step in range(self.fabric.num_nodes):
            node = (home + step) % self.fabric.num_nodes
            if (
                membership is not None
                and node != include
                and not membership.in_ring(node)
            ):
                continue
            desired.append(node)
            if len(desired) >= self.config.replica_factor:
                break
        return desired

    # -- scanning ----------------------------------------------------------
    def note_withdrawn(self, keys: Iterable[StoreKey]) -> None:
        """Crash hook: remember keys whose holder set may have hit zero."""
        directory = self.fabric.directory
        with self._lock:
            for key in keys:
                if not directory.holders(key):
                    self._lost.add(key)

    def pending(self) -> List[Tuple[StoreKey, List[int]]]:
        """Every under-replicated ``(key, live_holders)``, deterministic order.

        Directory entries below factor come first; then the lost keys
        (zero live holders) that still have a PFS copy to repair from.
        """
        membership = self.fabric.membership
        factor = self.config.replica_factor
        work: List[Tuple[StoreKey, List[int]]] = []
        for key, holders in self.fabric.directory.snapshot():
            live = [
                h for h in holders
                if membership is None or membership.can_serve_reads(h)
            ]
            if live and len(live) < factor:
                work.append((key, live))
        with self._lock:
            lost = sorted(self._lost)
        pfs = self.fabric.pfs
        for key in lost:
            if self.fabric.directory.holders(key):
                with self._lock:
                    self._lost.discard(key)
                continue
            if pfs is not None and pfs.contains(key):
                work.append((key, []))
        return work

    # -- copying -----------------------------------------------------------
    def _request(self, key: StoreKey):
        """The QoS tag of a repair copy: ``repair_class``, on the flow of the
        key's home engine (``None`` when scheduling is off)."""
        return self.cluster.sched.request(self._tclass, key[0])

    def _copy(self, key: StoreKey, sources: List[int], target: int) -> bool:
        """One repair copy onto ``target``'s SSD; True on success.

        Prefers a reachable live SSD holder (remote read + interconnect
        hop, exactly the replication stage's cost model); falls back to
        the PFS when no holder is usable.  The target's ``put`` republishes
        the key in the directory via the normal commit path.
        """
        membership = self.fabric.membership
        target_ssd = self.cluster.nodes[target].ssd
        source, origin, link = "pfs", self.fabric.pfs, None
        for holder in sources:
            if holder == target:
                continue
            if membership is not None and not membership.reachable(holder, target):
                continue
            if self.cluster.nodes[holder].ssd.contains(key):
                source, origin = holder, self.cluster.nodes[holder].ssd
                link = self.fabric.link(holder, target)
                break
        with self.telemetry.bus.span(
            "repair", REPAIR_TRACK, key=str(key), target=target, source=source
        ) as span:
            if origin is None or not origin.contains(key):
                span.add(abandoned=True)
                return False
            try:
                stored = copy_whole(
                    origin, target_ssd, key, hop=link, node_id=target, request=self._request(key)
                )
            except ReproError:
                span.add(abandoned=True)
                self._m_failures.inc()
                return False
        self._m_copies.inc()
        self._m_bytes.inc(stored)
        with self._lock:
            self._lost.discard(key)
        self.repaired += 1
        return True

    # -- driving -----------------------------------------------------------
    def repair_once(self) -> int:
        """One anti-entropy scan; returns the copies made.

        At most ``repair_max_inflight`` copies per scan keep a mass
        withdrawal from flooding the fabric in one burst — the interval
        between scans is the pacing knob.
        """
        membership = self.fabric.membership
        if membership is not None:
            membership.tick()
        copies = 0
        for key, holders in self.pending():
            if copies >= self.config.repair_max_inflight:
                break
            current = set(self.fabric.directory.holders(key))
            for target in self._desired_holders(key):
                if copies >= self.config.repair_max_inflight:
                    break
                if target in current:
                    continue
                if self.cluster.nodes[target].ssd.offline:
                    continue
                if self._copy(key, holders, target):
                    current.add(target)
                    copies += 1
        self._m_pending.set(len(self.pending()))
        return copies

    def run(self, max_rounds: int = 64) -> int:
        """Scan-and-copy until nothing is under-replicated (or rounds cap).

        Rounds are separated by ``repair_interval_s`` on the virtual
        clock, so repair bandwidth is spread instead of burst-consumed.
        """
        total = 0
        for round_idx in range(max_rounds):
            copies = self.repair_once()
            total += copies
            if copies == 0:
                break
            if self.config.repair_interval_s > 0:
                self.clock.sleep(self.config.repair_interval_s)
        return total

    def backfill_node(self, node_id: int) -> int:
        """Rejoin catch-up: copy every blob ``node_id``'s ring position owes.

        Runs to completion (it is the gate between ``joining`` and
        ``up``), then promotes the node in the membership registry.
        Returns the number of blobs copied.
        """
        ssd = self.cluster.nodes[node_id].ssd
        copies = 0
        for key, holders in self.fabric.directory.snapshot():
            if node_id not in self._desired_holders(key, include=node_id):
                continue
            if ssd.contains(key):
                continue
            if self._copy(key, holders, node_id):
                copies += 1
                self._m_backfills.inc()
        membership = self.fabric.membership
        if membership is not None:
            membership.mark_up(node_id)
        # The widened ring may shift placement; one scan settles factor.
        self.repair_once()
        return copies
