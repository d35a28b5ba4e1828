"""Parallel-file-system tier (Lustre stand-in).

One :class:`PfsStore` per cluster, shared by every node.  Each node funnels
its PFS traffic through its own per-node ingress/egress links (a node's
share of the fabric), while a global pair of links models the file system's
aggregate bandwidth — so both per-node and cluster-wide saturation occur.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, TYPE_CHECKING

from repro.clock import VirtualClock
from repro.config import HardwareSpec, ScaleModel
from repro.simgpu.bandwidth import Link
from repro.telemetry import Telemetry
from repro.tiers.base import ObjectStore, TierLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultDomain
    from repro.sched.scheduler import SchedContext


class PfsStore(ObjectStore):
    """Throttled cluster-shared checkpoint store: the one durable store
    (:class:`~repro.tiers.base.ObjectStore`) over a route of two links —
    the asking node's share, then the file system's aggregate — plus
    batched commits (:meth:`put_batch`)."""

    level = TierLevel.PFS
    tier = "pfs"

    def __init__(
        self,
        spec: HardwareSpec,
        scale: ScaleModel,
        clock: VirtualClock,
        num_nodes: int = 1,
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
        self.global_write_link = self._attach(
            Link("pfs-write", aggregate_write, clock, latency=0.0, chunk_size=1 << 62)
        )
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
                self._node_links[node_id] = tuple(
                    self._attach(Link(name, bandwidth, self._clock, latency=spec.pfs_latency))
                    for name, bandwidth in (
                        (f"node{node_id}-pfs-write", spec.pfs_write_bandwidth),
                        (f"node{node_id}-pfs-read", spec.pfs_read_bandwidth),
                    )
                )
            return self._node_links[node_id]

    def route(self, node_id: int, write: bool):
        """The node's own share of the fabric, then the aggregate link."""
        node_write, node_read = self.node_links(node_id)
        if write:
            return node_write, self.global_write_link
        return node_read, self.global_read_link

    def put_batch(self, entries, node_id: int = 0, request=None) -> float:
        """Commit several whole objects as one aggregated PFS operation.

        ``entries`` is ``[(key, payload, nominal_size, meta), ...]``. All
        bytes cross the node and global links as a single transfer — one
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
        slow = max((g[0] for g in gates), default=1.0)
        with self.telemetry.bus.span(
            "pfs-put-batch", self.track, ops=len(entries), bytes=total
        ):
            seconds = 0.0
            for link in self.route(node_id, True):
                seconds += link.transfer(total, request=request)
            if slow > 1.0:  # brownout: the whole batch rides the slow link
                extra = seconds * (slow - 1.0)
                self._clock.sleep(extra)
                seconds += extra
        self._m_write_bytes.inc(total)
        self._m_write_ops.inc()
        for (key, payload, nominal_size, meta), (_slow, corrupt_at) in zip(
            entries, gates
        ):
            self._commit_blob(key, payload, nominal_size, meta, True, corrupt_at)
        return seconds
