"""The cluster fabric: peer-SSD reads, replica routing, PFS aggregation.

:class:`ClusterFabric` is built by :class:`~repro.tiers.topology.Cluster`
when ``config.cluster.enabled`` and owns everything the single-node stack
does not know about:

* the :class:`~repro.cluster.directory.ReplicaDirectory` every node SSD
  publishes into,
* peer-read routing — :meth:`peer_source` resolves a checkpoint key to a
  :class:`PeerSsdStore` wrapping a healthy neighbor's SSD, reached over
  the modeled interconnect (the same booked, fault-injected links
  replication uses),
* ring-successor replica targets for the flusher's replication stage,
* per-node :class:`~repro.cluster.aggregator.PfsWriteAggregator` instances
  batching concurrent flush streams into single PFS commits.

A peer read is one cut-through leg: the holder's drive with the fabric
crossed alongside, so a chunk costs the slower of the two.  One that dies
mid-transfer on either (breaker-open SSD, link fault, tier outage) falls
back to the PFS transparently: the reader re-opens the blob there and
replays the failed chunk, so callers see one uninterrupted byte stream
either way.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cluster.aggregator import PfsWriteAggregator
from repro.cluster.directory import ReplicaDirectory, StoreKey
from repro.cluster.membership import MembershipRegistry
from repro.cluster.repair import ReplicaRepairer
from repro.errors import TransientTransferError
from repro.simgpu.bandwidth import Link
from repro.tiers.base import ObjectStore, TierLevel

if TYPE_CHECKING:
    from repro.tiers.ssd import SsdStore
    from repro.tiers.topology import Cluster


class ClusterFabric:
    """Cluster-wide routing state shared by every engine in the topology."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.config = cluster.config.cluster
        self.clock = cluster.clock
        self.telemetry = cluster.telemetry
        self.health = cluster.health
        self.faults = cluster.faults
        self.pfs = cluster.pfs
        self.num_nodes = len(cluster.nodes)
        self.directory = ReplicaDirectory()
        #: anti-entropy replica repair: no thread, idle until a crash.  Built
        #: before the membership registry so crash sweeps can feed it.
        self.repairer = ReplicaRepairer(self)
        #: node liveness + crash/rejoin/partition chaos driver.  Inert
        #: (``membership.active`` False, zero per-op cost beyond one check)
        #: until node events are configured or a crash is triggered.
        self.membership = MembershipRegistry(self)
        self._lock = threading.Lock()
        self._aggregators: Dict[int, PfsWriteAggregator] = {}
        #: a node with one engine has no co-located writer to batch with:
        #: its leader would wait out the window for nobody.
        self._aggregate = (
            self.config.aggregation and cluster.config.effective_processes_per_node > 1
        )
        registry = cluster.telemetry.registry
        self._m_peer_reads = registry.counter("cluster.peer.reads")
        self._m_peer_read_bytes = registry.counter("cluster.peer.read_bytes")
        self._m_peer_fallbacks = registry.counter("cluster.peer.fallbacks")
        # Node-attributed telemetry lanes: every SSD track and the per-node
        # peer track (its failovers) carry their node id into the trace
        # (per-node Perfetto lanes / `analyze` rollups).
        bus = cluster.telemetry.bus
        for node in cluster.nodes:
            bus.bind_track(node.ssd.track, node_id=node.node_id)
            bus.bind_track(f"node{node.node_id}-peer", node_id=node.node_id)

    # -- replica placement -----------------------------------------------------
    def replica_targets(self, node_id: int) -> List[Tuple[int, "SsdStore", Link]]:
        """Ring-successor SSDs receiving replicas of ``node_id``'s checkpoints.

        ``replica_factor`` counts the home copy, so a factor of 2 yields one
        successor — VELOC's partner pair, generalized to N nodes.
        """
        targets = []
        for step in range(1, self.config.replica_factor):
            peer = (node_id + step) % self.num_nodes
            if peer == node_id:
                break
            targets.append(
                (peer, self.cluster.nodes[peer].ssd, self.cluster.internode_link(node_id, peer))
            )
        return targets

    def live_replica_targets(self, node_id: int) -> List[Tuple[int, "SsdStore", Link]]:
        """The replica targets that are up and reachable right now.

        The flusher swaps to this list while chaos is active so replication
        skips dead or partitioned successors instead of burning its retry
        budget against them; the repairer restores the factor once the ring
        heals.
        """
        membership = self.membership
        return [
            (peer, ssd, link)
            for peer, ssd, link in self.replica_targets(node_id)
            if membership.in_ring(peer) and membership.reachable(node_id, peer)
        ]

    # -- peer reads ------------------------------------------------------------
    def peer_source(self, reader_node: int, key: StoreKey) -> Optional["PeerSsdStore"]:
        """A readable neighbor SSD holding ``key``, or None.

        Holders are tried in ring order from the reader; a holder must still
        contain the blob (the directory can lag a concurrent eviction) and
        its breaker must be closed. A tier-global SSD outage darkens every
        peer at once — the caller then drops to the PFS.
        """
        if not self.config.peer_reads:
            return None
        if self.faults.hard_outage("ssd"):
            return None
        chaos = self.membership.active
        if chaos:
            self.membership.tick()
        holders = self.directory.holders(key)
        if not holders:
            return None
        holders.sort(key=lambda h: (h - reader_node) % self.num_nodes)
        skipped_by_membership = False
        for holder in holders:
            if holder == reader_node:
                continue
            if chaos and not (
                self.membership.can_serve_reads(holder)
                and self.membership.reachable(reader_node, holder)
            ):
                # Dead holder (directory lag) or a partition cutting us off
                # from it: route around — degraded PFS-only when none left.
                skipped_by_membership = True
                continue
            remote = self.cluster.nodes[holder].ssd
            if not remote.contains(key):
                continue
            if not self.health.healthy(remote.track):
                continue
            return PeerSsdStore(self, reader_node, holder, remote)
        if skipped_by_membership:
            self.membership.note_degraded_read()
        return None

    # -- PFS writes ------------------------------------------------------------
    def pfs_put(
        self,
        node_id: int,
        key: StoreKey,
        payload,
        nominal_size: int,
        *,
        cancelled=None,
        meta=None,
        request=None,
    ) -> float:
        """Route a whole-object PFS write through ``node_id``'s aggregator.

        With aggregation off, or one engine per node, this is exactly the
        direct ``pfs.put`` call, so timings and op counts are unchanged.
        """
        if not self._aggregate:
            return self.pfs.put(
                key,
                payload,
                nominal_size,
                node_id=node_id,
                cancelled=cancelled,
                meta=meta,
                request=request,
            )
        with self._lock:
            aggregator = self._aggregators.get(node_id)
            if aggregator is None:
                aggregator = PfsWriteAggregator(self, node_id)
                self._aggregators[node_id] = aggregator
        return aggregator.submit(
            key,
            payload,
            nominal_size,
            cancelled=cancelled,
            meta=meta,
            request=request,
        )


class PeerSsdStore:
    """Read-only view of a neighbor node's SSD, reached over the fabric.

    The read half of the store interface (``get``, ``open_get``,
    ``contains``, ``meta``, ``size_of``, ``verify``, ``track``, ``level``),
    so the engine's promotion path works unchanged.  Every chunk crosses the
    remote SSD's read link with the interconnect link alongside
    (:class:`_PeerGet`).  A wrapper rather than the remote store itself: a
    read that dies on either link fails over to a *different* store
    mid-stream, blaming that link's breaker.
    """

    level = TierLevel.SSD
    #: reads cross the interconnect: the engine plans a read that also fills
    #: a GPU extent as chunks, so PCIe overlaps it (``ScoreEngine.chunks_for``).
    across_fabric = True

    def __init__(
        self,
        fabric: ClusterFabric,
        reader_node: int,
        peer_node: int,
        remote: "SsdStore",
    ) -> None:
        self.fabric = fabric
        self.reader_node = reader_node
        self.peer_node = peer_node
        self.remote = remote
        # Spans from the remote read land on the peer's own SSD track, and
        # its breaker is the peer drive's.
        self.track = remote.track

    def contains(self, key: StoreKey) -> bool:
        return self.remote.contains(key)

    def meta(self, key: StoreKey):
        return self.remote.meta(key)

    def size_of(self, key: StoreKey) -> int:
        return self.remote.size_of(key)

    def verify(self, key: StoreKey) -> bool:
        return self.remote.verify(key)

    def open_get(
        self, key: StoreKey, *, node_id: int = 0, request=None,
        nominal_size: Optional[int] = None, via=None,
    ):
        """The store's read handle; ``node_id`` and ``via`` are accepted for
        the common signature — this view already knows its reader node and
        the link its bytes cross."""
        return _PeerGet(self, key, request=request, nominal_size=nominal_size)

    #: the one whole-object read: ``open_get`` + one chunk + ``finish``.
    get = ObjectStore.get


class _PeerGet:
    """Streaming read off a peer SSD with transparent PFS failover.

    Each chunk is one charge on the remote SSD's read route with this
    node's interconnect link crossed alongside: the drive's fault gates and
    brownout model, the fabric's booking and fault draw.

    If the peer dies mid-read — a :class:`TransientTransferError` — the
    breaker of the link that raised it is blamed (this node's
    ``node<r>-peer`` for a fault drawn on the fabric, the peer drive's
    otherwise), the blob is re-opened on the PFS and the failed chunk is
    read there; later chunks are read off the PFS.  The chunks that crossed
    stay crossed, and the caller sees a single uninterrupted stream.
    """

    def __init__(
        self,
        store: PeerSsdStore,
        key: StoreKey,
        request=None,
        nominal_size: Optional[int] = None,
    ) -> None:
        self.store = store
        self.key = key
        self._request = request
        fabric = store.fabric
        self._hop_track = f"node{store.reader_node}-peer"
        self._link = fabric.cluster.internode_link(store.reader_node, store.peer_node)
        self._reader = store.remote.open_get(
            key, request=request, nominal_size=nominal_size, via=self._link
        )
        self.nominal_size = self._reader.nominal_size
        self._fallback = None
        self.seconds = 0.0

    def read(self, nbytes: int, cancelled=None, request=None, queued: float = 0.0) -> float:
        """One chunk off the holder's SSD across the fabric (off the PFS
        after a failover, whose own failures are the caller's to see; the
        replayed chunk is a fresh submission)."""
        request = request if request is not None else self._request
        if self._fallback is not None:
            seconds = self._fallback.read(
                nbytes, cancelled=cancelled, request=request, queued=queued
            )
        else:
            try:
                seconds = self._reader.read(
                    nbytes, cancelled=cancelled, request=request, queued=queued
                )
            except TransientTransferError as exc:
                seconds = self._fail_over(exc, nbytes, request, cancelled)
        self.seconds += seconds
        return seconds

    def _fail_over(
        self, error: TransientTransferError, nbytes: int, request, cancelled=None
    ) -> float:
        """Re-open on the PFS and replay the ``nbytes`` chunk ``error`` cut."""
        fabric = self.store.fabric
        fabric.health.failure(self._hop_track if error.link is self._link else self.store.track)
        fabric._m_peer_fallbacks.inc()
        fabric.telemetry.bus.instant(
            "peer-fallback", self._hop_track, key=str(self.key), peer=self.store.peer_node
        )
        if fabric.pfs is None or not fabric.pfs.contains(self.key):
            raise error  # no durable copy below: surface the peer failure
        self._fallback = fabric.pfs.open_get(
            self.key, node_id=self.store.reader_node, request=request
        )
        return self._fallback.read(nbytes, cancelled=cancelled, request=request)

    def finish(self):
        if self._fallback is not None:
            payload, _ = self._fallback.finish()
            return payload, self.seconds
        payload, _ = self._reader.finish()
        fabric = self.store.fabric
        fabric._m_peer_reads.inc()
        fabric._m_peer_read_bytes.inc(self.nominal_size)
        fabric.health.success(self.store.track)
        fabric.health.success(self._hop_track)
        return payload, self.seconds
