"""Parallel-file-system tier (Lustre stand-in).

One :class:`PfsStore` per cluster, shared by every node.  Each node funnels
its PFS traffic through its own per-node ingress/egress links (a node's
share of the fabric), while a global pair of links models the file system's
aggregate bandwidth — so both per-node and cluster-wide saturation occur.
A written chunk crosses both at once (cut-through: a pipelined path runs at
its bottleneck link's rate), so a lone write runs at the node's share and
the aggregate only bites when several nodes write at once.  A read still
crosses the node's share, then the aggregate (why: DESIGN.md §5 "Tiers and
stores: one durable store").
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, TYPE_CHECKING

from repro.clock import VirtualClock
from repro.config import HardwareSpec, ScaleModel
from repro.simgpu.bandwidth import Link
from repro.telemetry import Telemetry
from repro.tiers.base import ObjectStore, TierLevel
from repro.util.units import MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultDomain
    from repro.sched.scheduler import SchedContext


class PfsStore(ObjectStore):
    """Throttled cluster-shared checkpoint store: the one durable store
    (:class:`~repro.tiers.base.ObjectStore`) over a route of two links —
    the asking node's share and the file system's aggregate — plus batched
    commits (:meth:`put_batch`)."""

    level = TierLevel.PFS
    tier = "pfs"

    def __init__(
        self,
        spec: HardwareSpec,
        scale: ScaleModel,
        clock: VirtualClock,
        aggregate_factor: float = 2.0,
        telemetry: Optional[Telemetry] = None,
        sched: Optional["SchedContext"] = None,
        faults: Optional["FaultDomain"] = None,
    ) -> None:
        """``aggregate_factor``: the file system sustains this multiple of a
        single node's share before becoming the bottleneck."""
        super().__init__("pfs", scale, clock, telemetry, faults)
        self._spec = spec
        self._sched = sched
        self._faults_hook = faults
        aggregate_write = spec.pfs_write_bandwidth * max(1.0, aggregate_factor)
        aggregate_read = spec.pfs_read_bandwidth * max(1.0, aggregate_factor)
        # The write aggregate is only crossed alongside a node's share:
        # booked, never granted, so it takes the fault hook but no scheduler.
        self.global_write_link = Link("pfs-write", aggregate_write, clock)
        if faults is not None:
            faults.attach(self.global_write_link)
        self.global_read_link = self._attach(
            Link("pfs-read", aggregate_read, clock, latency=0.0, chunk_size=1 << 62)
        )
        self._node_links: Dict[int, tuple] = {}
        self._link_lock = threading.Lock()

    def _attach(self, link: Link) -> Link:
        if self._sched is not None:
            self._sched.attach(link)
        if self._faults_hook is not None:
            self._faults_hook.attach(link)
        return link

    def node_links(self, node_id: int):
        """Per-node ``(ingress, egress)`` links (created lazily)."""
        spec = self._spec
        with self._link_lock:
            if node_id not in self._node_links:
                # Writes take whole-object grants, as on the drive: with the
                # aggregate crossed alongside, chunk interleaving of two
                # writers on one share buys nothing but slot hand-offs.
                self._node_links[node_id] = tuple(
                    self._attach(Link(
                        name, bandwidth, self._clock, latency=spec.pfs_latency, chunk_size=chunk
                    ))
                    for name, bandwidth, chunk in (
                        (f"node{node_id}-pfs-write", spec.pfs_write_bandwidth, 1 << 62),
                        (f"node{node_id}-pfs-read", spec.pfs_read_bandwidth, 8 * MiB),
                    )
                )
            return self._node_links[node_id]

    def granted_links(self) -> list:
        """The aggregate read link and every node's shares."""
        with self._link_lock:
            shares = [link for pair in self._node_links.values() for link in pair]
        return [self.global_read_link, *shares]

    def route(self, node_id: int, write: bool):
        """A write crosses the node's own share and the aggregate at once; a
        read crosses the node's share, then the aggregate."""
        node_write, node_read = self.node_links(node_id)
        if write:
            return ((node_write, self.global_write_link),)
        return ((node_read, None), (self.global_read_link, None))

    def put_batch(self, entries, node_id: int = 0, request=None) -> float:
        """Commit several whole objects as one aggregated PFS operation.

        ``entries`` is ``[(key, payload, nominal_size, meta), ...]``. All
        bytes cross the route as a single transfer — one
        per-op latency charge and one metadata op for the whole batch,
        which is exactly what write aggregation buys — and the blobs
        commit only after the full transfer lands (commit-at-end: a crash
        mid-batch durably commits nothing). Fault gates and corruption
        draws still run per entry so injection stays key-deterministic.
        """
        gates = []
        total = 0
        for key, payload, nominal_size, meta in entries:
            slow = 1.0
            corrupt_at = None
            if self.faults is not None:
                slow = self.faults.tier_gate(self.tier, self.track, "put", key)
                corrupt_at = self.faults.corruption(self.track, key, int(payload.size))
            gates.append((slow, corrupt_at))
            total += nominal_size
        slow = max((g[0] for g in gates), default=1.0)  # one browned-out entry slows the batch
        with self.telemetry.bus.span(
            "pfs-put-batch", self.track, ops=len(entries), bytes=total
        ):
            seconds = self._cross(self.route(node_id, True), total, slow, request=request)
        self._m_write_bytes.inc(total)
        self._m_write_ops.inc()
        for (key, payload, nominal_size, meta), (_slow, corrupt_at) in zip(
            entries, gates
        ):
            self._commit_blob(key, payload, nominal_size, meta, True, corrupt_at)
        return seconds
