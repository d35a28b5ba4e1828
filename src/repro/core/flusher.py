"""Asynchronous multi-level flushing (T_D2H and T_H2F of Section 4.3.1).

One cascade, walked by every checkpoint.  ``schedule()`` builds a
:class:`~repro.core.streaming.ChunkPipeline` and co-submits one worker per
stage, each on its own FIFO stream:

* ``d2h`` — GPU cache → pinned host cache, over the (shared) PCIe link;
* ``h2f`` — the durable hop: host copy → node-local SSD (rerouted to the
  PFS while the SSD is dark);
* ``f2r`` → ``f2p`` — SSD read-back feeding the PFS write, when persistence
  beyond the node is requested;
* ``repl`` — SSD → replica SSDs, queued by the durable hop once it landed.

With GPUDirect storage the first two collapse into ``d2s``: the durable hop
with no upstream stage, DMA-ing each chunk across PCIe itself.

The *chunk plan* is the only thing that varies.  With
``StreamConfig.enabled`` an object of two or more ``stream_chunk_bytes``
chunks overlaps its stages chunk by chunk; anything else plans one chunk, so
each stage moves the whole object once its upstream published it — the
store-and-forward cascade is the one-chunk case of the same code.  Under
either plan a stage buffers in the tier it writes (the host extent, the SSD
blob) and runs at its own link's pace; only the read-back ``f2r``, whose
chunks live in a bounce buffer, parks on its consumer
(``StreamConfig.ring_chunks``), so ``checkpoint()`` is held by host-cache
capacity and explicit admission, never by the PFS.

The code observes the plan only where the two really differ: multi-chunk
pipelines feed the ``flush.stream.*`` occupancy metrics and emit
``<stage>-chunk`` slices, and a one-chunk PFS commit is a whole-object put
(which, clustered, rides the fabric's write aggregator).

The cascade follows the life cycle: a tier's instance becomes ``FLUSHED``
(evictable) only once the next slower tier holds a complete copy.  The
producer snapshots the payload out of the GPU arena *before* the throttled
transfer and hands it down the pipeline, so the GPU instance can be evicted
mid-flight without corrupting the flush (``Instance.flush_pending`` guards
the snapshot window; the host copy stays pinned until the durable hop ends).

Problem condition (5): flushes of discarded checkpoints are abandoned —
``record.cancel_flush`` is checked chunk-wise inside the link transfer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.core.lifecycle import CkptState
from repro.core.streaming import ChunkPipeline, chunk_sizes_for
from repro.clock import Stopwatch
from repro.errors import (
    AllocationError,
    BackpressureError,
    ReproError,
    TransferError,
    TransientTransferError,
)
from repro.faults.retry import run_with_retries
from repro.log import get_logger
from repro.metrics.recorder import OpEvent, OpKind
from repro.sched.request import TransferClass
from repro.telemetry.causal import (
    CAT_REROUTE,
    CAT_RESERVE,
    CAT_RETRY,
    CAT_TRANSFER,
)
from repro.tiers.base import TierLevel, copy_object

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import CheckpointRecord
    from repro.core.engine import ScoreEngine

log = get_logger(__name__)


class Flusher:
    """The flush cascade of one engine."""

    def __init__(self, engine: "ScoreEngine") -> None:
        self.engine = engine
        create = engine.device.create_stream
        self.d2h_stream = create("flush-d2h")
        self.h2f_stream = create("flush-h2f")
        self.repl_stream = create("flush-repl") if engine.replica_targets else None
        # The PFS upgrade is two stages on two streams: the SSD read-back
        # (f2r) produces for the PFS writer (f2p), so reads overlap writes.
        self.f2r_stream = create("flush-f2r") if engine.flush_to_pfs else None
        self.f2p_stream = create("flush-f2p") if engine.flush_to_pfs else None
        self._streams = [
            stream
            for stream in (
                self.d2h_stream,
                self.h2f_stream,
                self.repl_stream,
                self.f2r_stream,
                self.f2p_stream,
            )
            if stream is not None
        ]
        self.abandoned = 0
        self.replicated = 0
        #: self-healing tallies (resilience; all zero when it is off).
        self.retries = 0
        self.rerouted = 0
        self.reflushed = 0
        self.backfilled = 0
        #: records rerouted to the PFS while the SSD was dark, awaiting a
        #: catch-up copy back onto the node-local tier once it returns.
        self._backfill: deque = deque()
        self._backfill_lock = threading.Lock()
        self.telemetry = engine.telemetry
        pid = engine.process_id
        self._tracks = {
            "d2h": f"p{pid}-flush-d2h",
            "d2s": f"p{pid}-flush-d2h",  # GPUDirect rides the d2h stream
            "h2f": f"p{pid}-flush-h2f",
            "f2p": f"p{pid}-flush-f2p",
            "f2r": f"p{pid}-flush-f2r",
            "repl": f"p{pid}-flush-repl",
        }
        registry = self.telemetry.registry
        self._m_bytes = {
            stage: registry.counter(f"flush.{stage}.bytes")
            for stage in ("d2h", "d2s", "h2f", "f2p", "repl")
        }
        self._m_abandoned = registry.counter("flush.abandoned")
        self._m_ckpt_shed = registry.counter("engine.checkpoint.shed")
        self._m_ckpt_backpressure = registry.histogram("engine.checkpoint.backpressure_s")
        self._m_d2h_depth = registry.gauge("flush.d2h.depth")
        self._m_h2f_depth = registry.gauge("flush.h2f.depth")
        self._m_retries = registry.counter("resilience.flush_retries")
        self._m_reroutes = registry.counter("resilience.reroutes")
        self._m_reflush = registry.counter("resilience.reflushes")
        self._m_backfills = registry.counter("resilience.backfills")
        # Pipeline occupancy, accounted for multi-chunk pipelines only.
        self._stream_lock = threading.Lock()
        self._stream_active_s = 0.0
        self._stream_overlap_s = 0.0
        self._m_streamed = registry.counter("flush.stream.pipelines")
        self._m_overlap = registry.gauge("flush.stream.overlap_ratio")
        self._m_stall = {
            stage: registry.gauge(f"flush.{stage}.stall_time")
            for stage in ("d2h", "d2s", "h2f", "f2r", "f2p")
        }

    @property
    def backfill_depth(self) -> int:
        """Records durable only on the PFS, awaiting SSD catch-up copies."""
        with self._backfill_lock:
            return len(self._backfill)

    def _causal(self, op, tier: str) -> dict:
        """Extra span kwargs tying a flush leg to its op, empty when off.

        Gated on ``op.op_id`` so disabled runs emit byte-identical spans
        (the ``tier`` arg must not appear in their args dicts).
        """
        if op.op_id is None:
            return {}
        return {"op_id": op.op_id, "category": CAT_TRANSFER, "tier": tier}

    def _span(self, stage: str, record: "CheckpointRecord", nbytes: int, tier: str, **args):
        """The span of one flush leg on its stage's track, tied to the
        record's op."""
        return self.telemetry.bus.span(
            stage,
            self._tracks[stage],
            ckpt=record.ckpt_id,
            bytes=nbytes,
            **args,
            **self._causal(record.op, tier),
        )

    def _abandon(self, stage: str, record: "CheckpointRecord", reason: str) -> None:
        """Count + trace + log one abandoned flush leg (monitor NOT required)."""
        self.abandoned += 1
        self._m_abandoned.inc()
        self.telemetry.bus.instant(
            "flush-abandoned",
            self._tracks[stage],
            op_id=record.op.op_id,
            ckpt=record.ckpt_id,
            reason=reason,
        )
        log.debug(
            "p%d: abandoning %s flush of checkpoint %d (%s)",
            self.engine.process_id,
            stage,
            record.ckpt_id,
            reason,
        )

    def schedule(self, record: "CheckpointRecord") -> None:
        """Co-submit the cascade stages of one checkpoint after its GPU write.

        Every flush is a :class:`ChunkPipeline`; only the chunk plan differs.
        With streaming on, objects of two or more ``stream_chunk_bytes``
        chunks overlap their stages chunk by chunk; everything else plans
        one chunk, and each stage then moves the whole object once its
        upstream published it — the store-and-forward cascade.

        All stages of one checkpoint are submitted together, in cascade
        order, onto their per-stage FIFO streams.  Because every checkpoint
        submits in the same stage order, the only cross-stage waits are
        *backward* (consumer on producer of the same checkpoint, the
        read-back throttled by its own PFS writer) — the dependency graph
        stays acyclic and the co-scheduled workers cannot deadlock.
        """
        engine = self.engine
        with engine.monitor:
            record.instance(TierLevel.GPU).flush_pending = True
        pipeline = ChunkPipeline(
            record.ckpt_id,
            engine.chunks_for(record.wire_size(TierLevel.GPU, TierLevel.HOST)),
            engine.clock,
            cancelled=record.cancel_flush,
            crashed=engine.crashed,
        )
        if engine.gpudirect:
            # GPUDirect storage: the durable hop is also the producer (it
            # DMAs each chunk across PCIe itself), so no host staging stage.
            stages = [("d2s", self.d2h_stream, self._stage_durable)]
        else:
            stages = [
                ("d2h", self.d2h_stream, self._stage_d2h),
                ("h2f", self.h2f_stream, self._stage_durable),
            ]
        if self.f2p_stream is not None:
            # The PFS upgrade runs as two stages — SSD read-back producing
            # for the PFS writer — so chunk reads overlap chunk writes.
            stages.append(("f2r", self.f2r_stream, self._stage_f2r))
            stages.append(("f2p", self.f2p_stream, self._stage_f2p))
        for name, _stream, _body in stages:
            pipeline.add_stage(name)
        pipeline.retain(len(stages))
        if pipeline.chunks > 1:
            self._m_streamed.inc()
        for name, stream, body in stages:
            event = stream.submit(
                lambda name=name, body=body: self._run_stage(name, body, record, pipeline),
                label=f"{name}-{record.ckpt_id}",
            )
            # Event-driven failure propagation: a stage worker that dies
            # with an unhandled error (or is cancelled at stream close)
            # fails its pipeline stage so neighbours unblock immediately
            # instead of timing out in their waits.
            event.add_done_callback(
                lambda ev, name=name: pipeline.fail(name)
                if (ev.error is not None or ev.cancelled)
                else None
            )
        self._m_d2h_depth.set(self.d2h_stream.depth)
        self._m_h2f_depth.set(self.h2f_stream.depth)

    def _run_stage(self, stage: str, body, record: "CheckpointRecord", pipeline) -> None:
        """Run one stage worker of one checkpoint's pipeline.

        A stage body returns ``True`` once its stage finished (or was
        skipped); anything else — an abandoning bare ``return``, an
        exception — fails the stage so its neighbours unblock.  The last
        worker out rolls a multi-chunk pipeline into the occupancy gauges.
        """
        done = False
        try:
            # A dead incarnation drops its queued work.
            if not self.engine.crashed.is_set():
                done = body(stage, record, pipeline)
        finally:
            if not done:
                pipeline.fail(stage)
            if pipeline.release() and pipeline.chunks > 1:
                self._account_stream(pipeline)

    def _request(self, record: "CheckpointRecord"):
        """QoS tag for one flush leg (None when scheduling is off).

        The record's ``cancel_flush`` event doubles as the request's
        cancellation channel, so abandonment (condition (5)) interrupts a
        leg whether it is mid-transfer or still queued in an arbiter.
        """
        return self.engine._sched_request(
            TransferClass.CASCADE_FLUSH, cancel_event=record.cancel_flush
        )

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for the whole cascade to settle (the paper's WAIT variant).

        ``timeout`` is in wall-clock seconds (callers convert nominal time
        via ``clock.to_real``); returns ``False`` when any stream still has
        work in flight at the deadline, ``True`` once everything drained.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        # Sweep until every stream is *simultaneously* idle: the durable hop
        # enqueues replication work, and co-scheduled stages finish in any
        # order, so a fixed pass count can return while the tail of the
        # cascade is still in flight.  Each sweep also gives rerouted
        # records a chance to backfill onto a healed SSD; a *stuck* backfill
        # (tier still dark) does not hold drain hostage — matching the
        # historical contract.
        while True:
            backfill_before = self.backfill_depth
            self._drain_backfill()
            for stream in self._streams:
                if deadline is None:
                    stream.synchronize()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not stream.synchronize(timeout=remaining):
                    return False
            if any(stream.depth > 0 for stream in self._streams):
                continue  # a synced stage enqueued downstream work mid-sweep
            depth = self.backfill_depth
            if depth and depth != backfill_before:
                continue  # backfill progressed; give it another sweep
            return True

    def backpressure(self, ckpt_id: int) -> float:
        """Admission control for the write path.

        Bounds how far ``checkpoint()`` may run ahead of the flush cascade:
        when the D2H flush stream holds ``max_flush_backlog`` or more
        pending flushes, either block (returning the nominal seconds spent
        waiting) or shed with :class:`BackpressureError` per
        ``SchedConfig.admission``.  A no-op when scheduling is disabled.
        """
        engine = self.engine
        scfg = engine.config.sched
        if not engine.sched.enabled or scfg.admission == "off":
            return 0.0
        stream = self.d2h_stream
        if stream.depth < scfg.max_flush_backlog:
            return 0.0
        if scfg.admission == "shed":
            self._m_ckpt_shed.inc()
            self.telemetry.bus.instant(
                "checkpoint-shed", engine._app_track, ckpt=ckpt_id, depth=stream.depth
            )
            raise BackpressureError(
                f"checkpoint {ckpt_id} shed: flush backlog {stream.depth} >= "
                f"{scfg.max_flush_backlog} (admission policy 'shed')"
            )
        with Stopwatch(engine.clock) as sw:
            stream.wait_depth_below(scfg.max_flush_backlog)
        self._m_ckpt_backpressure.observe(sw.elapsed)
        return sw.elapsed

    def stall_report(self, timeout: float) -> str:
        """One-line stall report for :class:`FlushTimeoutError`."""
        engine = self.engine
        depths = ", ".join(
            f"{stream.name.rsplit('-', 1)[-1]}={stream.depth}" for stream in self._streams
        )
        links = [engine.device.d2h_link, engine.ssd.write_link, engine.ssd.read_link]
        pending = ", ".join(
            f"{link.name}={link.pending_bytes}B" for link in links if link.pending_bytes
        )
        message = (
            f"p{engine.process_id}: flushes still pending after {timeout:g}s "
            f"(nominal); stream depths [{depths}]; "
            f"in-flight link bytes [{pending or 'none'}]"
        )
        if engine.sched.enabled:
            stalled = [s for s in engine.sched.snapshot() if s["depth"]]
            message += f"; scheduler queues {stalled or 'all empty'}"
        if engine.resilient:
            message += (
                f"; retries={self.retries} rerouted={self.rerouted} "
                f"backfill_pending={self.backfill_depth}"
                f"; breakers {engine.health.snapshot() or 'all closed'}"
            )
        if engine.faults.enabled:
            message += f"; injected {engine.faults.snapshot()}"
        return message

    def close(self) -> None:
        for stream in self._streams:
            stream.close(drain=True)

    # -- self-healing machinery ----------------------------------------------
    def _retrying(self, stage: str, record: "CheckpointRecord", fn, breaker=None):
        """Run one flush leg on :func:`run_with_retries`, retrying injected
        transient faults.

        A plain call when resilience is off — the
        :class:`TransientTransferError` then propagates into the stage's
        historical ``TransferError`` handling, so disabled behavior is
        unchanged.  Each attempt feeds the endpoint's circuit breaker when
        ``breaker`` names one; exponential backoff with deterministic jitter
        is charged on the virtual clock, inside a traced ``backoff`` stage.
        """
        engine = self.engine
        track = self._tracks[stage]
        op = record.op

        def back_off(attempt: int, delay: float, exc: Exception) -> None:
            self.retries += 1
            self._m_retries.inc()
            self.telemetry.bus.instant(
                "flush-retry",
                track,
                op_id=op.op_id,
                ckpt=record.ckpt_id,
                stage=stage,
                attempt=attempt,
                delay=delay,
            )
            with op.stage("backoff", CAT_RETRY, track=track, leg=stage):
                engine.clock.sleep(delay)

        def feed_breaker(succeeded: bool) -> None:
            (engine.health.success if succeeded else engine.health.failure)(breaker)

        return run_with_retries(
            fn,
            policy=engine.retry_policy,
            clock=engine.clock,
            class_name="CASCADE_FLUSH",
            labels=(stage, record.ckpt_id),
            on_retry=back_off,
            should_abort=lambda: record.cancel_flush.is_set() or engine.crashed.is_set(),
            on_attempt=None if breaker is None else feed_breaker,
        )

    def _put_whole(self, record: "CheckpointRecord", store, payload) -> None:
        """Whole-object put of the in-hand pristine payload on a durable
        store: the reverify re-put, and the one-chunk PFS commit.  Clustered,
        a PFS put goes through the fabric's per-node write aggregator, where
        concurrent whole-object flushes coalesce; the direct call has the
        same timings and op count."""
        engine = self.engine
        if store is engine.pfs and engine.fabric is not None:
            put = partial(engine.fabric.pfs_put, engine.node_id)
        else:
            put = partial(store.put, node_id=engine.node_id)
        put(
            engine.store_key(record),
            payload,
            record.stored_size(store.level),
            cancelled=record.cancel_flush,
            meta=engine.recovery_meta(record),
            request=self._request(record),
        )

    def _reverify(self, stage: str, record: "CheckpointRecord", store, payload) -> bool:
        """Post-commit CRC re-verification with bounded re-put.

        Scrubs the just-committed blob against the pristine CRC stamped at
        commit time; a mismatch (injected at-rest corruption) deletes the
        blob and re-puts it from the in-hand pristine payload, twice at
        most.  Persistent corruption leaves no blob and retracts the
        journal entry.  Returns whether a verified copy is stored (always
        ``True`` when resilience or reverify is off).
        """
        engine = self.engine
        if not (engine.resilient and engine.config.resilience.reverify):
            return True
        breaker = store.track
        key = engine.store_key(record)
        op = record.op
        with op.stage("reverify", CAT_RETRY, track=self._tracks[stage], tier=store.tier):
            verified = store.verify(key)
            attempt = 0
            while not verified and attempt < 2:
                self.reflushed += 1
                self._m_reflush.inc()
                self.telemetry.bus.instant(
                    "flush-reverify",
                    self._tracks[stage],
                    op_id=op.op_id,
                    ckpt=record.ckpt_id,
                    stage=stage,
                    tier=breaker,
                    attempt=attempt,
                )
                log.warning(
                    "p%d: %s flush of checkpoint %d failed CRC verification; "
                    "re-flushing",
                    engine.process_id, stage, record.ckpt_id,
                )
                store.delete(key)
                try:
                    self._retrying(
                        stage,
                        record,
                        lambda: self._put_whole(record, store, payload),
                        breaker=breaker,
                    )
                except TransferError:
                    break
                verified = store.verify(key)
                attempt += 1
        if not verified:
            store.delete(key)
            engine.dropped(record, store)
        return verified

    def backfill(self, record: "CheckpointRecord") -> None:
        """A restore dropped ``record``'s corrupt SSD copy: queue the same
        catch-up copy from the PFS a rerouted flush gets, and try it now."""
        with self._backfill_lock:
            self._backfill.append(record)
        self._drain_backfill()

    def _drain_backfill(self) -> None:
        """Catch-up copies of PFS-only records once the SSD is usable.

        Pops queued records and copies their PFS blobs back onto the local
        SSD, breaker-gated; a failure (tier still dark) re-queues the record
        and stops until the next drain opportunity.
        """
        engine = self.engine
        if not engine.resilient:
            return
        breaker = engine.ssd.track
        while True:
            with self._backfill_lock:
                if not self._backfill:
                    return
                record = self._backfill.popleft()
            key = engine.store_key(record)
            if record.discarded or engine.crashed.is_set():
                continue
            if engine.ssd.contains(key):
                continue  # already healed by another path
            if engine.faults.hard_outage("ssd") or not engine.health.allow(breaker):
                with self._backfill_lock:
                    self._backfill.appendleft(record)
                return
            op = record.op
            # The op has been idle since its reroute, waiting for the dark
            # SSD to heal: label that whole gap before timing the copy, so
            # its timeline stays gap-free.
            op.fill("await-heal", CAT_REROUTE, track=self._tracks["h2f"])
            backfill_t0 = engine.clock.now()
            try:
                copy_object(
                    engine.pfs,
                    engine.ssd,
                    key,
                    node_id=engine.node_id,
                    cancelled=record.cancel_flush,
                    request=self._request(record),
                    meta=engine.recovery_meta(record),
                )
            except (TransferError, ReproError):
                engine.health.failure(breaker)
                with self._backfill_lock:
                    self._backfill.appendleft(record)
                return
            engine.health.success(breaker)
            engine.landed(record, engine.ssd)
            self.backfilled += 1
            self._m_backfills.inc()
            if op.op_id is not None:
                now = engine.clock.now()
                self.telemetry.bus.complete(
                    "backfill",
                    self._tracks["h2f"],
                    backfill_t0,
                    now - backfill_t0,
                    op_id=op.op_id,
                    category=CAT_REROUTE,
                    tier="ssd",
                )
            self.telemetry.bus.instant(
                "flush-backfill",
                self._tracks["h2f"],
                op_id=op.op_id,
                ckpt=record.ckpt_id,
            )

    # -- stages --------------------------------------------------------------
    # One set of stage workers per checkpoint, co-submitted by schedule():
    # d2h → h2f (→ f2r → f2p), or with GPUDirect d2s (→ f2r → f2p).  Each
    # stage charges its link chunk by chunk against the upstream stage's
    # published completions through the checkpoint's ChunkPipeline.  Payload
    # *bytes* still move and commit whole-object — a torn stream leaves
    # nothing on any tier, so the manifest journal's crash consistency does
    # not depend on the chunk plan.

    def _bail(self, stage: str, record: "CheckpointRecord", reason: str) -> None:
        """Quiet abandonment of a stage whose neighbour already abandoned
        (and counted) the flush — log only, no double-count."""
        log.debug(
            "p%d: %s stage of checkpoint %d bailing (%s)",
            self.engine.process_id, stage, record.ckpt_id, reason,
        )

    def _charge_chunk(
        self,
        stage: str,
        tier: str,
        record: "CheckpointRecord",
        pipeline: ChunkPipeline,
        chunk: int,
        nbytes: int,
        charge,
        breaker=None,
    ) -> None:
        """Charge one chunk on its link (retrying transient faults, feeding
        ``breaker``) as the pipeline's chunk step."""
        pipeline.charge_chunk(
            stage, chunk, nbytes,
            lambda: self._retrying(stage, record, charge, breaker=breaker),
            self.telemetry.bus, self._tracks[stage], self._causal(record.op, tier),
        )

    def _account_stream(self, pipeline: ChunkPipeline) -> None:
        """Roll one finished multi-chunk pipeline into the occupancy gauges."""
        with self._stream_lock:
            self._stream_active_s += pipeline.active_s
            self._stream_overlap_s += pipeline.overlap_s
            active = self._stream_active_s
            overlap = self._stream_overlap_s
            for stage, stalled in pipeline.stall_s.items():
                gauge = self._m_stall.get(stage)
                if gauge is not None and stalled > 0:
                    gauge.add(stalled)
        if active > 0:
            self._m_overlap.set(overlap / active)

    def _pcie_chunk(self, record: "CheckpointRecord", nbytes: int) -> None:
        """One chunk of a GPU snapshot across the (shared) PCIe link."""
        self.engine.device.d2h_link.transfer(
            nbytes, cancelled=record.cancel_flush, request=self._request(record)
        )

    def _snapshot_gpu(self, stage: str, record: "CheckpointRecord"):
        """Producer preamble (``d2h``, or the GPUDirect ``d2s``): snapshot
        the bytes out of the GPU arena, then release the instance for
        eviction.  Returns ``None`` after abandoning."""
        engine = self.engine
        engine._maybe_crash(f"before-{stage}", record)
        record.op.fill("flush-queue", track=self._tracks[stage])
        with engine.monitor:
            gpu_inst = record.peek(TierLevel.GPU)
            if record.discarded or gpu_inst is None:
                if gpu_inst is not None:
                    gpu_inst.flush_pending = False
                self._abandon(stage, record, "discarded or already evicted")
                engine.monitor.notify_all()
                return None
        try:
            payload = engine.gpu_cache.read_payload(record)
        except AllocationError:
            # Discarded and evicted between the check and the snapshot.
            self._abandon(stage, record, "evicted during payload snapshot")
            return None
        with engine.monitor:
            gpu_inst.flush_pending = False
            engine.monitor.notify_all()
        return payload

    def _record_flush(self, record: "CheckpointRecord", started: float) -> None:
        """The GPU copy is flushed one level down: log the FLUSH op."""
        engine = self.engine
        engine.recorder.record(
            OpEvent(
                kind=OpKind.FLUSH,
                ckpt_id=record.ckpt_id,
                started_at=started,
                blocked=engine.clock.now() - started,
                nominal_bytes=record.nominal_size,
                source_level=TierLevel.GPU.name,
            )
        )

    def _skip_upgrade(self, pipeline: ChunkPipeline) -> None:
        """The PFS upgrade of this checkpoint is moot (the blob went to the
        PFS directly, or never landed on the SSD)."""
        if self.f2p_stream is not None:
            pipeline.skip("f2r")
            pipeline.skip("f2p")

    def _stage_d2h(self, stage: str, record: "CheckpointRecord", pipeline: ChunkPipeline):
        """GPU cache → pinned host cache: produce chunks into the pipeline
        as they cross PCIe."""
        engine = self.engine
        started = engine.clock.now()
        payload = self._snapshot_gpu(stage, record)
        if payload is None:
            return
        op = record.op
        track = self._tracks[stage]
        # Host-site reduction: encode off the application's critical path,
        # on this flush thread, before the host placement — the host cache
        # and everything below hold the physical form.
        engine.encode_at("host", record, payload, op, track)
        # Hand the post-encode physical payload to the consumers up front:
        # they charge their links chunk-by-chunk against our published
        # completions instead of re-reading the host copy.
        pipeline.payload = engine.stored_payload(record, TierLevel.HOST, payload)
        wire = record.wire_size(TierLevel.GPU, TierLevel.HOST)
        # Claim host cache space (blocks for evictions as needed).
        with op.stage("reserve-host", CAT_RESERVE, track=track):
            engine.host_cache.reserve(record, CkptState.WRITE_IN_PROGRESS, blocking=True)
        with engine.monitor:
            # Pinned for the durable hop before any chunk is published, so
            # however early that hop ends it finds (and clears) the pin.
            record.instance(TierLevel.HOST).flush_pending = True
        with self._span(stage, record, wire, "pcie", chunks=pipeline.chunks) as span:
            try:
                # No ring on this edge: the whole host extent is reserved
                # above, so chunks land in the tier however far behind the
                # durable hop runs.  A discard stops the loop through the
                # link's ``cancelled=``.
                for i, nbytes in enumerate(chunk_sizes_for(wire, pipeline.chunks)):
                    self._charge_chunk(
                        stage, "pcie", record, pipeline, i, nbytes,
                        lambda: self._pcie_chunk(record, nbytes),
                    )
            except TransferError:
                span.add(abandoned=True)
                # Abandon: release the half-written host extent.
                engine.host_cache.release(record)
                self._abandon(stage, record, "cancelled mid-transfer")
                return
        self._m_bytes[stage].inc(wire)
        engine.host_cache.write_payload(record, pipeline.payload)
        engine.landed(record, engine.host_cache, flushed=TierLevel.GPU)
        self._record_flush(record, started)
        engine._maybe_crash("after-d2h", record)
        pipeline.finish(stage)
        return True

    def _stage_durable(self, stage: str, record: "CheckpointRecord", pipeline: ChunkPipeline):
        """The durable hop onto the node-local SSD (the PFS when rerouted),
        commit-at-end.

        ``h2f`` consumes the chunks ``d2h`` publishes.  The GPUDirect
        ``d2s`` is the same hop with no upstream stage: it snapshots the GPU
        copy itself and DMAs each chunk across PCIe before charging the
        drive, with no host staging.
        """
        engine = self.engine
        upstream = pipeline.upstream_of(stage)
        source = TierLevel.GPU if upstream is None else TierLevel.HOST
        started = engine.clock.now()
        op = record.op
        done = False
        try:
            if upstream is None:
                payload = pipeline.payload = self._snapshot_gpu(stage, record)
                if payload is None:
                    return
            else:
                op.fill("flush-queue", track=self._tracks[stage])
                # The preamble needs the post-encode payload and wire sizes,
                # so first wait for the producer to publish its opening chunk.
                if not pipeline.await_upstream(stage, 0):
                    self._bail(stage, record, "upstream abandoned")
                    return
                engine._maybe_crash(f"before-{stage}", record)
                with engine.monitor:
                    if record.discarded:
                        self._abandon(stage, record, "discarded mid-stream")
                        return
                payload = pipeline.payload
            wire = record.wire_size(source, TierLevel.SSD)
            with self._span(stage, record, wire, "ssd", chunks=pipeline.chunks) as span:
                store = self._durable_put(stage, record, pipeline, payload)
                if store is None:
                    span.add(abandoned=True)
                    return
                level = store.level
                if level is TierLevel.PFS:
                    span.add(rerouted=True)
            # The producer's epilogue owns the host instance's
            # WRITE_COMPLETE transition; settle it before flipping FLUSHED.
            if upstream is not None and not pipeline.await_finished(stage, upstream):
                self._bail(stage, record, "producer failed post-commit")
                return
            self._m_bytes[stage].inc(wire)
            pipeline.landed = level
            engine.landed(record, store, flushed=source, track=self._tracks[stage])
            if level is TierLevel.PFS and engine.config.resilience.backfill:
                # Rerouted: queue a catch-up copy onto the SSD for when it
                # returns.
                with self._backfill_lock:
                    self._backfill.append(record)
            if upstream is None:
                self._record_flush(record, started)
            engine._maybe_crash(f"after-{stage}", record)
            pipeline.finish(stage)
            done = True
            if level is TierLevel.SSD:
                self._drain_backfill()
                if self.repl_stream is not None:
                    self.repl_stream.submit(
                        lambda: self._replicate(record), label=f"repl-{record.ckpt_id}"
                    )
            return True
        finally:
            if not done:
                self._skip_upgrade(pipeline)
                # The source copy was pinned for this hop; an abandoned hop
                # must unpin it or it is unevictable forever.
                with engine.monitor:
                    pinned = record.peek(source)
                    if pinned is not None and pinned.flush_pending:
                        pinned.flush_pending = False
                        engine.monitor.notify_all()

    def _take_chunk(
        self,
        stage: str,
        record: "CheckpointRecord",
        pipeline: ChunkPipeline,
        chunk: int,
        nbytes: int,
    ) -> bool:
        """Bring input chunk ``chunk`` of the durable hop in hand: published
        by the upstream stage, or — GPUDirect has none — DMA'd across PCIe
        here.  A chunk already in hand (a reroute replaying onto another
        store) is not taken again.  ``False`` when the upstream abandoned."""
        if chunk < pipeline.in_hand:
            return True
        if pipeline.upstream_of(stage) is None:
            self._retrying(stage, record, lambda: self._pcie_chunk(record, nbytes))
        elif not pipeline.await_upstream(stage, chunk):
            return False
        pipeline.in_hand = chunk + 1
        return True

    def _stream_put(
        self, stage: str, record: "CheckpointRecord", pipeline: ChunkPipeline, store, payload
    ) -> bool:
        """Stream the durable hop's chunks onto ``store``: open, charge each
        chunk on the store's links as it comes in hand, commit after the
        last — only then is the blob visible.  A transient failure retries
        *the failed chunk* and feeds the store's breaker; past the retry
        budget it propagates.  ``False`` after the upstream abandoned.
        """
        engine = self.engine
        stored = record.stored_size(store.level)
        # The open draws the tier gate (a dark tier raises here, at chunk 0)
        # and the at-rest corruption for this put attempt; retries re-open,
        # re-drawing both.
        handle = self._retrying(
            stage,
            record,
            lambda: store.open_put(
                engine.store_key(record),
                stored,
                int(payload.size),
                node_id=engine.node_id,
                cancelled=record.cancel_flush,
            ),
            breaker=store.track,
        )
        # GPUDirect never crosses the host-site encode, so its PCIe chunks
        # are the stored chunks.
        for i, nbytes in enumerate(chunk_sizes_for(stored, pipeline.chunks)):
            if not self._take_chunk(stage, record, pipeline, i, nbytes):
                handle.abort()
                self._bail(stage, record, "upstream abandoned")
                return False
            self._charge_chunk(
                stage, store.tier, record, pipeline, i, nbytes,
                lambda: handle.write(nbytes, request=self._request(record)),
                breaker=store.track,
            )
        # Commit-at-end: ownership of the snapshot passes to the store
        # (copy=False, the zero-copy path).
        handle.commit(payload, meta=engine.recovery_meta(record), copy=False)
        return True

    def _durable_put(
        self, stage: str, record: "CheckpointRecord", pipeline: ChunkPipeline, payload
    ):
        """Land ``payload`` durably: the local SSD, or the PFS when the SSD
        is dark (circuit breaker open, outage window) and rerouting is on.

        An exhausted retry budget (or an open breaker) reroutes to the PFS,
        resuming at the failed chunk — chunks already in hand are not
        re-transferred (for a one-chunk plan that is the whole object).
        Returns the store the verified blob landed on, or ``None`` after
        abandoning the hop.
        """
        engine = self.engine
        ssd = engine.ssd
        can_reroute = (
            engine.resilient and engine.config.resilience.reroute and engine.pfs is not None
        )
        if engine.resilient and not engine.health.allow(ssd.track):
            # Blacklisted: don't feed the dark tier another doomed write.
            if can_reroute:
                return self._reroute(stage, record, pipeline, payload)
            self._abandon(stage, record, "ssd circuit breaker open")
            return None
        try:
            with record.op.stage(
                "ssd-put", CAT_TRANSFER, track=self._tracks[stage], tier="ssd"
            ):
                if not self._stream_put(stage, record, pipeline, ssd, payload):
                    return None
        except TransientTransferError as exc:
            if can_reroute:
                return self._reroute(stage, record, pipeline, payload)
            self._abandon(stage, record, f"{type(exc).__name__} mid-transfer")
            return None
        except TransferError:
            self._abandon(stage, record, "cancelled mid-transfer")
            return None
        if not self._reverify(stage, record, ssd, payload):
            if can_reroute:
                return self._reroute(stage, record, pipeline, payload)
            self._abandon(stage, record, "persistent corruption on SSD put")
            return None
        return ssd

    def _reroute(
        self, stage: str, record: "CheckpointRecord", pipeline: ChunkPipeline, payload
    ):
        """Reroute the durable hop around a dark SSD, straight to the PFS.

        The chunks in hand (``pipeline.in_hand``) already left the GPU, so
        they replay onto the PFS links immediately; the remaining chunks
        keep streaming in as before — the hop resumes at the failed chunk
        instead of restarting the cascade.  Returns the PFS once a verified
        blob is stored there (the caller journals it and queues the SSD
        backfill), ``None`` after abandoning.
        """
        engine = self.engine
        pfs = engine.pfs
        op = record.op
        track = self._tracks[stage]
        self._skip_upgrade(pipeline)
        self.rerouted += 1
        self._m_reroutes.inc()
        self.telemetry.bus.instant(
            "flush-reroute",
            track,
            op_id=op.op_id,
            ckpt=record.ckpt_id,
            stage=stage,
            chunk=pipeline.in_hand,
        )
        log.info(
            "p%d: rerouting %s flush of checkpoint %d around the dark SSD to "
            "the PFS at chunk %d/%d",
            engine.process_id, stage, record.ckpt_id, pipeline.in_hand, pipeline.chunks,
        )
        try:
            with op.stage("reroute", CAT_REROUTE, track=track, tier="pfs"):
                if not self._stream_put(stage, record, pipeline, pfs, payload):
                    return None
                if not self._reverify(stage, record, pfs, payload):
                    self._abandon(stage, record, "persistent corruption on PFS reroute")
                    return None
        except TransferError as exc:
            self._abandon(stage, record, f"PFS reroute failed ({type(exc).__name__})")
            return None
        return pfs

    def _stage_f2r(self, stage: str, record: "CheckpointRecord", pipeline: ChunkPipeline):
        """SSD read-back: the producer half of the PFS upgrade.

        Runs as its own pipeline stage on its own stream so the read of
        chunk *i+1* overlaps the PFS write of chunk *i* (and the read-back
        of one checkpoint the PFS write of the previous one).  The
        read-back overlaps the not-yet-committed SSD put (the drive streams
        its write buffer through), so the handle takes the size explicitly
        instead of the store index, and the payload comes from the pipeline.
        """
        engine = self.engine
        # Sizes and the physical payload settle once the producer has run
        # its preamble (host-site encode), signalled by its first published
        # chunk reaching the durable hop.
        if not pipeline.await_upstream(stage, 0):
            self._bail(stage, record, "durable hop abandoned")
            return
        if pipeline.skipped(stage):
            return True
        read_total = record.stored_size(TierLevel.SSD)
        try:
            reader = engine.ssd.open_get(engine.store_key(record), nominal_size=read_total)
        except TransferError as exc:
            self._abandon(stage, record, f"{type(exc).__name__} at read-back open")
            return
        op = record.op
        track = self._tracks[stage]
        with self._span(stage, record, read_total, "ssd", chunks=pipeline.chunks) as span:
            try:
                for i, nbytes in enumerate(chunk_sizes_for(read_total, pipeline.chunks)):
                    if not pipeline.await_upstream(stage, i):
                        self._bail(stage, record, "durable hop abandoned")
                        span.add(abandoned=True)
                        return
                    if pipeline.skipped(stage) or pipeline.failed("f2p"):
                        # Rerouted, or the writer already abandoned (and
                        # counted) the upgrade: reading on is waste.
                        return True
                    if not pipeline.throttle(stage, i, engine.config.stream.ring_chunks):
                        raise TransferError("stream interrupted")
                    # This read-back shares the read link with demand
                    # restores — the QoS tag keeps it behind them.  Retried
                    # apart from the PFS write so an SSD failure never
                    # counts against the PFS breaker.
                    with op.stage("read-back", CAT_TRANSFER, track=track, tier="ssd"):
                        self._charge_chunk(
                            stage, "ssd", record, pipeline, i, nbytes,
                            lambda: reader.read(nbytes, request=self._request(record)),
                        )
            except TransferError:
                span.add(abandoned=True)
                self._abandon(stage, record, "read-back cancelled mid-transfer")
                return
        reader.close()
        pipeline.finish(stage)
        return True

    def _stage_f2p(self, stage: str, record: "CheckpointRecord", pipeline: ChunkPipeline):
        """PFS upgrade: consume read-back chunks, charge the PFS per chunk,
        commit-at-end over a blob the durable hop landed on the SSD."""
        engine = self.engine
        if pipeline.skipped(stage):
            return True
        op = record.op
        track = self._tracks[stage]
        op.fill("flush-queue", track=track)
        with engine.monitor:
            if record.discarded:
                self._abandon(stage, record, "discarded before PFS flush")
                return
        pfs = engine.pfs
        if pfs is None:
            return True
        if engine.resilient and not engine.health.allow(pfs.track):
            # The SSD copy is (or will be) durable; skip the dark PFS rather
            # than feed its breaker another doomed upgrade write.
            self._abandon(stage, record, "pfs circuit breaker open")
            return
        # The read-back's opening chunk implies the producer preamble ran,
        # so the physical payload and stored sizes are settled.
        if not pipeline.await_upstream(stage, 0):
            self._bail(stage, record, "read-back abandoned")
            return
        if pipeline.skipped(stage):
            return True
        payload = pipeline.payload
        stored = record.stored_size(TierLevel.PFS)
        wire = record.wire_size(TierLevel.SSD, TierLevel.PFS)
        writer = None
        with self._span(stage, record, wire, "pfs", chunks=pipeline.chunks) as span:
            try:
                if pipeline.chunks > 1:
                    writer = pfs.open_put(
                        engine.store_key(record),
                        stored,
                        int(payload.size),
                        node_id=engine.node_id,
                        cancelled=record.cancel_flush,
                    )
                    for i, nbytes in enumerate(chunk_sizes_for(stored, pipeline.chunks)):
                        if not pipeline.await_upstream(stage, i):
                            self._bail(stage, record, "read-back abandoned")
                            span.add(abandoned=True)
                            return
                        if pipeline.skipped(stage):
                            return True
                        self._charge_chunk(
                            stage, pfs.tier, record, pipeline, i, nbytes,
                            lambda: writer.write(nbytes, request=self._request(record)),
                            breaker=pfs.track,
                        )
                # The upgrade only commits over a blob the durable hop
                # actually landed on the SSD (reroutes skip this stage).
                if not pipeline.await_finished(stage, pipeline.upstream_of("f2r")):
                    span.add(abandoned=True)
                    self._bail(stage, record, "durable hop failed")
                    return
                if pipeline.skipped(stage) or pipeline.landed is not TierLevel.SSD:
                    return True
                engine._maybe_crash(f"before-{stage}", record)
                if writer is None:
                    # One chunk: charge and commit as one whole-object put.
                    self._retrying(
                        stage,
                        record,
                        lambda: self._put_whole(record, pfs, payload),
                        breaker=pfs.track,
                    )
                else:
                    writer.commit(payload, meta=engine.recovery_meta(record))
                    writer = None
            except TransferError as exc:
                span.add(abandoned=True)
                self._abandon(stage, record, f"{type(exc).__name__} mid-transfer")
                return
            finally:
                if writer is not None:
                    writer.abort()  # left without reaching its commit
            if not self._reverify(stage, record, pfs, payload):
                span.add(abandoned=True)
                self._abandon(stage, record, "persistent corruption on PFS put")
                return
        self._m_bytes[stage].inc(wire)
        engine.landed(record, pfs, track=track)
        engine._maybe_crash(f"after-{stage}", record)
        pipeline.finish(stage)
        return True

    def _replicate(self, record: "CheckpointRecord") -> None:
        """Copy the durable checkpoint to its replica targets' SSDs.

        The cluster fabric supplies ``replica_factor - 1`` ring successors
        (``engine.replica_targets``).  Targets are copied in ring order; a
        failed target abandons the remaining ones — replication is
        best-effort beyond the first durable copy.
        """
        engine = self.engine
        if engine.crashed.is_set():
            return
        engine._maybe_crash("before-repl", record)
        op = record.op
        op.fill("flush-queue", track=self._tracks["repl"])
        with engine.monitor:
            if record.discarded:
                self._abandon("repl", record, "discarded before replication")
                return
        # Replicas are verbatim SSD blobs and stay outside the chunk
        # accounting: the home node owns the recipe, a successor only keeps a
        # byte-copy for node-failure recovery.
        stored = record.stored_size(TierLevel.SSD)
        targets = engine.replica_targets
        if engine.fabric is not None and engine.fabric.membership.active:
            # Under node chaos, skip dead/partitioned targets instead of
            # burning retries into an offline SSD; the repairer restores
            # the factor once the target is back (or replaced).
            engine.fabric.membership.tick()
            targets = engine.fabric.live_replica_targets(engine.node_id)
        for _target_node, target_ssd, target_link in targets:

            def copy_to_replica(ssd=target_ssd, link=target_link) -> None:
                copy_object(
                    engine.ssd,
                    ssd,
                    engine.store_key(record),
                    hop=link,
                    cancelled=record.cancel_flush,
                    request=self._request(record),
                    meta=engine.recovery_meta(record),
                )

            with self._span("repl", record, stored, "fabric") as span:
                try:
                    self._retrying("repl", record, copy_to_replica)
                except (TransferError, ReproError) as exc:
                    span.add(abandoned=True)
                    self._abandon(
                        "repl", record, f"{type(exc).__name__} during replication"
                    )
                    return
            self._m_bytes["repl"].inc(stored)
            self.replicated += 1
            engine.landed(record, target_ssd)
        engine._maybe_crash("after-repl", record)
