"""Per-node PFS write aggregation: many small flushes, one batched commit.

Motivated by "Towards Aggregated Asynchronous Checkpointing" (PAPERS.md):
a serving front-end drives many concurrent engines per node, and each
flush stream pays the PFS per-op latency separately. The aggregator
coalesces whole-object flush writes that arrive within a short window
into a single :meth:`~repro.tiers.pfs.PfsStore.put_batch` — one per-op
latency charge and one metadata op for the whole batch.

Protocol (leader/follower on a virtual-clock :class:`Monitor`):

* The first writer to arrive becomes the batch *leader* and waits up to
  ``aggregation_window_s`` (nominal) for co-located streams to join.
* Followers append to the open batch and block until it commits; filling
  the batch (``MAX_OPS`` members / ``MAX_BYTES`` nominal bytes) seals
  it early and wakes the leader.
* The leader flushes the sealed batch *outside* the monitor so new
  arrivals start the next batch immediately.

Crash consistency is commit-at-end twice over: ``put_batch`` transfers
all bytes before committing any blob (a crash mid-batch durably commits
nothing), and each member's blob commits with its recovery metadata. A batch failure is re-raised in
every member's thread, so each flush stream retries independently and
re-aggregates into fresh batches.

A single-member batch degenerates to the legacy ``pfs.put`` call —
identical op count, latency model, and trace spans — so aggregation under
no concurrency only adds the window wait.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.sync import Monitor
from repro.util.units import MiB

if TYPE_CHECKING:
    from repro.cluster.fabric import ClusterFabric

#: a batch seals early once this many members joined, or once its combined
#: payload reaches this many nominal bytes.
MAX_OPS = 8
MAX_BYTES = 256 * MiB


class _Member:
    __slots__ = ("key", "payload", "nominal_size", "cancelled", "meta", "request")

    def __init__(self, key, payload, nominal_size, cancelled, meta, request):
        self.key = key
        self.payload = payload
        self.nominal_size = nominal_size
        self.cancelled = cancelled
        self.meta = meta
        self.request = request


class _Batch:
    __slots__ = ("members", "bytes", "sealed", "done", "error", "seconds")

    def __init__(self) -> None:
        self.members: List[_Member] = []
        self.bytes = 0
        self.sealed = False
        self.done = False
        self.error: Optional[BaseException] = None
        self.seconds = 0.0


class PfsWriteAggregator:
    """Coalesces one node's concurrent PFS flush writes into batches."""

    def __init__(self, fabric: "ClusterFabric", node_id: int) -> None:
        self.fabric = fabric
        self.node_id = node_id
        self.config = fabric.config
        self.monitor = Monitor(fabric.clock)
        self._batch: Optional[_Batch] = None
        registry = fabric.telemetry.registry
        self._m_batches = registry.counter("cluster.agg.batches")
        self._m_coalesced = registry.counter("cluster.agg.coalesced_ops")

    def submit(
        self,
        key,
        payload,
        nominal_size: int,
        *,
        cancelled=None,
        meta=None,
        request=None,
    ) -> float:
        """Enqueue one whole-object write; returns when its batch committed.

        The returned seconds cover the batch transfer (shared by every
        member — they all waited on it).
        """
        member = _Member(key, payload, nominal_size, cancelled, meta, request)
        config = self.config
        with self.monitor:
            batch = self._batch
            if batch is not None and not batch.sealed:
                # Follower: join the open batch, maybe seal it, wait it out.
                batch.members.append(member)
                batch.bytes += nominal_size
                if len(batch.members) >= MAX_OPS or batch.bytes >= MAX_BYTES:
                    batch.sealed = True
                    self._batch = None
                    self.monitor.notify_all()
                self.monitor.wait_for(lambda: batch.done)
                if batch.error is not None:
                    raise batch.error
                return batch.seconds
            # Leader: open a batch and hold the window for followers.
            batch = _Batch()
            batch.members.append(member)
            batch.bytes = nominal_size
            self._batch = batch
            self.monitor.wait_for(lambda: batch.sealed, config.aggregation_window_s)
            batch.sealed = True
            if self._batch is batch:
                self._batch = None
        try:
            batch.seconds = self._flush(batch)
        except BaseException as exc:
            batch.error = exc
            raise
        finally:
            with self.monitor:
                batch.done = True
                self.monitor.notify_all()
        return batch.seconds

    def _flush(self, batch: _Batch) -> float:
        pfs = self.fabric.pfs
        members = batch.members
        if len(members) == 1:
            # Solo batch: the exact legacy call, including its cancel event.
            m = members[0]
            return pfs.put(
                m.key,
                m.payload,
                m.nominal_size,
                node_id=self.node_id,
                cancelled=m.cancelled,
                meta=m.meta,
                request=m.request,
            )
        self._m_batches.inc()
        self._m_coalesced.inc(len(members) - 1)
        # One member's cancel event must not abort its batch-mates, so the
        # batched transfer runs uncancellable; QoS accounting reuses the
        # first member's scheduler request.
        request = next((m.request for m in members if m.request is not None), None)
        entries = [(m.key, m.payload, m.nominal_size, m.meta) for m in members]
        return pfs.put_batch(entries, node_id=self.node_id, request=request)
