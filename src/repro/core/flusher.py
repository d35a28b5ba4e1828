"""Asynchronous multi-level flushing (T_D2H and T_H2F of Section 4.3.1).

One cascade, walked by every checkpoint: ``schedule()`` builds a
:class:`~repro.core.streaming.ChunkPipeline` and co-submits one worker per
row of the stage table, each a *hop* (:mod:`repro.core.hop`: claim the sink,
charge the link chunk by chunk, commit, land) on its own FIFO stream:

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
store-and-forward cascade is the one-chunk case of the same code.  Either
way ``checkpoint()`` is held by host-cache capacity and explicit admission,
never by the PFS (``core/streaming.py``: who parks on whom).  The code
observes the plan only where the two really differ: multi-chunk pipelines
feed the ``flush.stream.*`` occupancy metrics and emit ``<stage>-chunk``
slices, and a one-chunk PFS commit is a whole-object put (which, clustered,
rides the fabric's write aggregator).

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
from collections import deque
from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.core.hop import Hop, Leg, copy_whole
from repro.core.lifecycle import CkptState
from repro.core.streaming import ChunkPipeline
from repro.clock import Stopwatch
from repro.errors import (
    AllocationError,
    BackpressureError,
    InjectedCrash,
    ReproError,
    TransferError,
    TransientTransferError,
)
from repro.faults.retry import run_with_retries
from repro.log import get_logger
from repro.metrics.recorder import OpEvent, OpKind
from repro.telemetry.causal import CAT_REROUTE, CAT_RESERVE, CAT_RETRY, CAT_TRANSFER
from repro.tiers.base import TierLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import CheckpointRecord
    from repro.core.engine import ScoreEngine

log = get_logger(__name__)

#: per-engine tallies (bumped from up to five stream threads, so through
#: :meth:`Flusher._tally`) and the registry counter each one mirrors.
TALLIES = {
    "abandoned": "flush.abandoned",
    "retries": "resilience.flush_retries",
    "rerouted": "resilience.reroutes",
    "reflushed": "resilience.reflushes",
    "backfilled": "resilience.backfills",
    "replicated": None,
}


def _passed(*_args) -> bool:
    """A row with nothing to do: a commit trusted, no catch-up queued."""
    return True


class Flusher:
    """The flush cascade of one engine."""

    def __init__(self, engine: "ScoreEngine") -> None:
        self.engine = engine
        self.telemetry = engine.telemetry
        #: Rows ``ScoreEngine._build_features`` contributes before :meth:`build`:
        #: the legs' retry/breaker ``policy``, the durable sinks (engine stores by
        #: name), the post-commit check, the reroute's catch-up, stall-report lines.
        self.policy = None
        self.durable_sinks = ("ssd",)
        self.verify = self.catch_up = _passed
        self.stall_fragments = ()
        self._tally_lock = threading.Lock()
        for name in TALLIES:
            setattr(self, name, 0)
        #: records rerouted to the PFS while the SSD was dark, awaiting a
        #: catch-up copy back onto the node-local tier once it returns.
        self._backfill: deque = deque()
        self._backfill_lock = threading.Lock()
        registry = self.telemetry.registry
        self._m_tallies = {
            name: registry.counter(metric) for name, metric in TALLIES.items() if metric
        }
        self._m_ckpt_shed = registry.counter("engine.checkpoint.shed")
        self._m_ckpt_backpressure = registry.histogram("engine.checkpoint.backpressure_s")
        self._m_d2h_depth = registry.gauge("flush.d2h.depth")
        self._m_h2f_depth = registry.gauge("flush.h2f.depth")
        # Pipeline occupancy, accounted for multi-chunk pipelines only.
        self._stream_lock = threading.Lock()
        self._stream_active_s = 0.0
        self._stream_overlap_s = 0.0
        self._m_streamed = registry.counter("flush.stream.pipelines")
        self._m_overlap = registry.gauge("flush.stream.overlap_ratio")

    def build(self) -> None:
        """Lay the stage table out, from the rows contributed meanwhile."""
        engine = self.engine
        pid = engine.process_id
        gds, pfs = engine.gpudirect, engine.flush_to_pfs
        self.streams = {}

        def row(stage, tier, body, source=None, on=None, exists=True) -> Leg:
            on = on or stage
            if exists and on not in self.streams:
                self.streams[on] = engine.device.create_stream(f"flush-{on}")
            return Leg(
                engine, stage, f"p{pid}-flush-{on}", tier,
                self.streams.get(on), body, source, self.policy,
            )

        # The stage table, the one place a stage is spelled: its tier label,
        # body, the cache level it flushes out of and its stream (and track)
        # — beside each row, whether schedule() walks it.
        gpu, host = TierLevel.GPU, TierLevel.HOST
        table = (
            (row("d2h", "pcie", self._stage_d2h, gpu), not gds),
            (row("h2f", "ssd", self._stage_durable, host), not gds),
            # GPUDirect storage: the durable hop is also the producer (it DMAs
            # each chunk across PCIe itself) and rides the d2h stream.
            (row("d2s", "ssd", self._stage_durable, gpu, on="d2h"), gds),
            # Queued by the durable hop once it landed; not a pipeline stage.
            (row("repl", "fabric", self._replicate, exists=bool(engine.replica_targets)), False),
            # The PFS upgrade is two stages on two streams: the SSD read-back
            # (f2r) produces for the PFS writer (f2p), so reads overlap writes.
            (row("f2r", "ssd", self._stage_f2r, exists=pfs), pfs),
            (row("f2p", "pfs", self._stage_f2p, exists=pfs), pfs),
        )
        self.legs = {leg.stage: leg for leg, _walked in table}
        self.cascade = tuple(leg for leg, walked in table if walked)
        self.d2h_stream = self.streams["d2h"]
        self.h2f_stream = self.streams["h2f"]
        self.f2p_stream = self.streams.get("f2p")
        registry = self.telemetry.registry
        # The read-back lands nothing (its chunks live in a bounce buffer).
        self._m_bytes = {
            stage: registry.counter(f"flush.{stage}.bytes") for stage in self.legs if stage != "f2r"
        }
        self._m_stall = {
            stage: registry.gauge(f"flush.{stage}.stall_time")
            for stage in self.legs
            if stage != "repl"
        }

    @property
    def backfill_depth(self) -> int:
        """Records durable only on the PFS, awaiting SSD catch-up copies."""
        with self._backfill_lock:
            return len(self._backfill)

    def _tally(self, name: str) -> None:
        """Bump one of :data:`TALLIES` (stage workers run on several threads)."""
        with self._tally_lock:
            setattr(self, name, getattr(self, name) + 1)
        metric = self._m_tallies.get(name)
        if metric is not None:
            metric.inc()

    def tallies(self) -> dict:
        """A consistent reading of :data:`TALLIES`."""
        with self._tally_lock:
            return {name: getattr(self, name) for name in TALLIES}

    def _span(self, leg: Leg, record: "CheckpointRecord", nbytes: int, **args):
        """The span of one flush leg on its track, tied to the record's op."""
        return self.telemetry.bus.span(
            leg.stage, leg.track, ckpt=record.ckpt_id, bytes=nbytes,
            **args, **leg.causal(record.op),
        )

    def _abandon(self, leg: Leg, record: "CheckpointRecord", reason: str, span=None) -> None:
        """Count + trace + log one abandoned flush leg (monitor NOT required)."""
        self._tally("abandoned")
        if span is not None:
            span.add(abandoned=True)
        self.telemetry.bus.instant(
            "flush-abandoned",
            leg.track,
            op_id=record.op.op_id,
            ckpt=record.ckpt_id,
            reason=reason,
        )
        log.debug(
            "p%d: abandoning %s flush of checkpoint %d (%s)",
            self.engine.process_id,
            leg.stage,
            record.ckpt_id,
            reason,
        )

    def schedule(self, record: "CheckpointRecord") -> None:
        """Co-submit the cascade stages of one checkpoint after its GPU write:
        one :class:`ChunkPipeline`, walked by the rows of the stage table.

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
        for leg in self.cascade:
            pipeline.add_stage(leg.stage)
        pipeline.retain(len(self.cascade))
        if pipeline.chunks > 1:
            self._m_streamed.inc()
        for leg in self.cascade:
            # Flush streams close draining, so every worker submitted runs —
            # and, however it ends, fails or finishes its stage (_run_stage).
            leg.stream.submit(
                partial(self._run_stage, leg, record, pipeline),
                label=f"{leg.stage}-{record.ckpt_id}",
            )
        self._m_d2h_depth.set(self.d2h_stream.depth)
        self._m_h2f_depth.set(self.h2f_stream.depth)

    def _run_stage(self, leg: Leg, record: "CheckpointRecord", pipeline=None) -> None:
        """The one stage runner: one worker of one checkpoint's pipeline, or
        its ``repl`` work item (no pipeline).

        A stage body returns true once its stage finished (or was skipped);
        anything else — an abandoning bare ``return``, an exception — leaves
        the :class:`Hop` unfinished, which aborts its claims, unpins its
        source and fails the stage so the neighbours unblock.  An injected
        crash or a ``TransferError`` is an expected way out and stays on the
        stream's event; any other exception would sit there unread, so it is
        counted, traced and logged here.  The last worker out rolls a
        multi-chunk pipeline into the occupancy gauges.
        """
        engine = self.engine
        try:
            with Hop(leg, record, pipeline) as hop:
                # A dead incarnation drops its queued work.
                if not engine.crashed.is_set():
                    hop.done = bool(leg.body(hop))
        except (TransferError, InjectedCrash):
            raise
        except Exception as exc:
            engine.swallowed(
                "flush-stage-error", leg.track,
                ckpt=record.ckpt_id, stage=leg.stage, error=type(exc).__name__,
            )
        finally:
            if pipeline is not None and pipeline.release() and pipeline.chunks > 1:
                self._account_stream(pipeline)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for the whole cascade to settle (the paper's WAIT variant).

        ``timeout`` is in nominal seconds; returns ``False`` when any stream
        still has work in flight at the deadline, ``True`` once all drained.
        """
        clock = self.engine.clock
        deadline = None if timeout is None else clock.now() + timeout
        streams = list(self.streams.values())
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
            for stream in streams:
                # Streams wait on the wall clock: the one conversion.
                remaining = None if deadline is None else clock.to_real(deadline - clock.now())
                if remaining is not None and remaining <= 0:
                    return False
                if not stream.synchronize(timeout=remaining):
                    return False
            if any(stream.depth > 0 for stream in streams):
                continue  # a synced stage enqueued downstream work mid-sweep
            depth = self.backfill_depth
            if depth and depth != backfill_before:
                continue  # backfill progressed; give it another sweep
            return True

    def backpressure(self, ckpt_id: int) -> float:
        """Admission control for the write path (QoS scheduling's ``admit`` step).

        Bounds how far ``checkpoint()`` may run ahead of the flush cascade:
        when the D2H flush stream holds ``max_flush_backlog`` or more
        pending flushes, either block (returning the nominal seconds spent
        waiting) or shed with :class:`BackpressureError` per
        ``SchedConfig.admission``.
        """
        engine = self.engine
        scfg = engine.config.sched
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
        depths = ", ".join(f"{on}={stream.depth}" for on, stream in self.streams.items())
        links = [engine.device.d2h_link, engine.ssd.write_link, engine.ssd.read_link]
        pending = ", ".join(
            f"{link.name}={link.pending_bytes}B" for link in links if link.pending_bytes
        )
        return "; ".join((
            f"p{engine.process_id}: flushes still pending after {timeout:g}s (nominal)",
            f"stream depths [{depths}]",
            f"in-flight link bytes [{pending or 'none'}]",
            *(fragment() for fragment in self.stall_fragments),
        ))

    def close(self) -> None:
        for stream in self.streams.values():
            stream.close(drain=True)

    # -- self-healing machinery: resilience's rows ------------------------------
    def resilience_stats(self) -> dict:
        """Resilience's fragment of ``engine.stats()``."""
        tallies = self.tallies()
        return {
            "flush_retries": tallies["retries"],
            "rerouted": tallies["rerouted"],
            "reflushed": tallies["reflushed"],
            "backfilled": tallies["backfilled"],
            "backfill_pending": self.backfill_depth,
            "breakers": self.engine.health.snapshot(),
        }

    def resilience_report(self) -> str:
        """Resilience's line of :meth:`stall_report`."""
        return (
            f"retries={self.retries} rerouted={self.rerouted} "
            f"backfill_pending={self.backfill_depth}"
            f"; breakers {self.engine.health.snapshot() or 'all closed'}"
        )

    def retrying(self, leg: Leg, record: "CheckpointRecord", fn, breaker=None):
        """The flush legs' policy (:meth:`Leg.attempt`): run one claim or
        charge on :func:`run_with_retries`, retrying injected transient faults.

        Each attempt feeds the endpoint's circuit breaker when ``breaker``
        names one; exponential backoff with deterministic jitter is charged
        on the virtual clock, inside a traced ``backoff`` stage.
        """
        engine = self.engine
        op = record.op

        def back_off(attempt: int, delay: float, exc: Exception) -> None:
            self._tally("retries")
            self.telemetry.bus.instant(
                "flush-retry",
                leg.track,
                op_id=op.op_id,
                ckpt=record.ckpt_id,
                stage=leg.stage,
                attempt=attempt,
                delay=delay,
            )
            with op.stage("backoff", CAT_RETRY, track=leg.track, leg=leg.stage):
                engine.clock.sleep(delay)

        def feed_breaker(succeeded: bool) -> None:
            (engine.health.success if succeeded else engine.health.failure)(breaker)

        return run_with_retries(
            fn,
            policy=engine.retry_policy,
            clock=engine.clock,
            class_name="CASCADE_FLUSH",
            labels=(leg.stage, record.ckpt_id),
            on_retry=back_off,
            should_abort=lambda: record.cancel_flush.is_set() or engine.crashed.is_set(),
            on_attempt=None if breaker is None else feed_breaker,
        )

    def _put_whole(self, leg: Leg, record: "CheckpointRecord", store, payload) -> None:
        """Whole-object put of the in-hand pristine payload on a durable
        store, under the leg's retry budget and the store's breaker: the
        reverify re-put, and the one-chunk PFS commit (``engine.pfs_put``:
        clustered, through the fabric's per-node write aggregator, where
        concurrent whole-object flushes coalesce; the direct call has the
        same timings and op count)."""
        engine = self.engine
        put = engine.pfs_put if store is engine.pfs else partial(store.put, node_id=engine.node_id)
        leg.attempt(
            record,
            lambda: put(
                engine.store_key(record),
                payload,
                record.stored_size(store.level),
                cancelled=record.cancel_flush,
                meta=engine.recovery_meta(record),
                request=leg.request(record),
            ),
            breaker=store.track,
        )

    def reverify(self, leg: Leg, record: "CheckpointRecord", store, payload) -> bool:
        """Post-commit CRC re-verification with bounded re-put (``verify``).

        Scrubs the just-committed blob against the pristine CRC stamped at
        commit time; a mismatch (injected at-rest corruption) deletes the
        blob and re-puts it from the in-hand pristine payload, twice at
        most.  Persistent corruption leaves no blob and retracts the
        journal entry.  Returns whether a verified copy is stored.
        """
        engine = self.engine
        key = engine.store_key(record)
        op = record.op
        with op.stage("reverify", CAT_RETRY, track=leg.track, tier=store.tier):
            verified = store.verify(key)
            attempt = 0
            while not verified and attempt < 2:
                self._tally("reflushed")
                self.telemetry.bus.instant(
                    "flush-reverify",
                    leg.track,
                    op_id=op.op_id,
                    ckpt=record.ckpt_id,
                    stage=leg.stage,
                    tier=store.track,
                    attempt=attempt,
                )
                log.warning(
                    "p%d: %s flush of checkpoint %d failed CRC verification; "
                    "re-flushing",
                    engine.process_id, leg.stage, record.ckpt_id,
                )
                store.delete(key)
                try:
                    self._put_whole(leg, record, store, payload)
                except TransferError:
                    break
                verified = store.verify(key)
                attempt += 1
        if not verified:
            store.delete(key)
            engine.dropped(record, store)
        return verified

    def queue_backfill(self, record: "CheckpointRecord") -> None:
        """Queue a catch-up copy of ``record`` from the PFS onto the SSD."""
        with self._backfill_lock:
            self._backfill.append(record)

    def backfill(self, record: "CheckpointRecord") -> None:
        """A restore dropped ``record``'s corrupt SSD copy: queue the same
        catch-up copy from the PFS a rerouted flush gets, and try it now."""
        self.queue_backfill(record)
        self._drain_backfill()

    def _drain_backfill(self) -> None:
        """Catch-up copies of PFS-only records once the SSD is usable.

        Pops queued records and copies their PFS blobs back onto the local
        SSD, breaker-gated; a failure (tier still dark) re-queues the record
        and stops until the next drain opportunity (only resilience queues any).
        """
        engine = self.engine
        leg = self.legs["h2f"]  # the durable hop's track, whichever stage ran it
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
            op.fill("await-heal", CAT_REROUTE, track=leg.track)
            backfill_t0 = engine.clock.now()
            try:
                copy_whole(
                    engine.pfs,
                    engine.ssd,
                    key,
                    node_id=engine.node_id,
                    cancelled=record.cancel_flush,
                    request=leg.request(record),
                    meta=engine.recovery_meta(record),
                )
            except ReproError:
                engine.health.failure(breaker)
                with self._backfill_lock:
                    self._backfill.appendleft(record)
                return
            engine.health.success(breaker)
            engine.landed(record, engine.ssd)
            self._tally("backfilled")
            if op.op_id is not None:
                now = engine.clock.now()
                self.telemetry.bus.complete(
                    "backfill",
                    leg.track,
                    backfill_t0,
                    now - backfill_t0,
                    op_id=op.op_id,
                    category=CAT_REROUTE,
                    tier="ssd",
                )
            self.telemetry.bus.instant(
                "flush-backfill", leg.track, op_id=op.op_id, ckpt=record.ckpt_id
            )

    # -- stages --------------------------------------------------------------
    # One set of stage workers per checkpoint, co-submitted by schedule():
    # d2h → h2f (→ f2r → f2p), or with GPUDirect d2s (→ f2r → f2p).  Each is
    # a hop charging its link chunk by chunk against the upstream stage's
    # published completions; what is written here is what differs between
    # them.  Payload *bytes* still move and commit whole-object — a torn
    # stream leaves nothing on any tier, so the manifest journal's crash
    # consistency does not depend on the chunk plan.

    def _bail(self, leg: Leg, record: "CheckpointRecord", reason: str) -> None:
        """Quiet abandonment of a stage whose neighbour already abandoned
        (and counted) the flush — log only, no double-count."""
        log.debug(
            "p%d: %s stage of checkpoint %d bailing (%s)",
            self.engine.process_id, leg.stage, record.ckpt_id, reason,
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

    def _snapshot_gpu(self, leg: Leg, record: "CheckpointRecord"):
        """Producer preamble (``d2h``, or the GPUDirect ``d2s``): snapshot
        the bytes out of the GPU arena, then release the instance for
        eviction.  Returns ``None`` after abandoning."""
        engine = self.engine
        engine._maybe_crash(f"before-{leg.stage}", record)
        record.op.fill("flush-queue", track=leg.track)
        with engine.monitor:
            gpu_inst = record.peek(TierLevel.GPU)
            if record.discarded or gpu_inst is None:
                # (The abandoned hop unpins the GPU copy on its way out.)
                self._abandon(leg, record, "discarded or already evicted")
                return None
        try:
            payload = engine.gpu_cache.read_payload(record)
        except AllocationError:
            # Discarded and evicted between the check and the snapshot.
            self._abandon(leg, record, "evicted during payload snapshot")
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
        for leg in self.cascade:
            if leg.source is None:  # the stages below the durable hop
                pipeline.skip(leg.stage)

    def _stage_d2h(self, hop: Hop):
        """GPU cache → pinned host cache: produce chunks into the pipeline
        as they cross PCIe."""
        engine = self.engine
        leg, record, pipeline = hop.leg, hop.record, hop.pipeline
        started = engine.clock.now()
        payload = self._snapshot_gpu(leg, record)
        if payload is None:
            return
        op = record.op
        # Host-site reduction: encode off the application's critical path,
        # on this flush thread, before the host placement — the host cache
        # and everything below hold the physical form.
        engine.encode_at("host", record, payload, op, leg.track)
        # Hand the post-encode physical payload to the consumers up front:
        # they charge their links chunk-by-chunk against our published
        # completions instead of re-reading the host copy.
        pipeline.payload = engine.stored_payload(record, TierLevel.HOST, payload)
        wire = record.wire_size(TierLevel.GPU, TierLevel.HOST)
        # Claim host cache space (blocks for evictions as needed).
        with op.stage("reserve-host", CAT_RESERVE, track=leg.track):
            hop.claim(
                engine.host_cache, record, CkptState.WRITE_IN_PROGRESS,
                engine.device.d2h_link, blocking=True,
            )
        with engine.monitor:
            # Pinned for the durable hop before any chunk is published, so
            # however early that hop ends it finds (and clears) the pin —
            # unless it has ended already, and nobody would.
            if not pipeline.failed(pipeline.downstream_of(leg.stage)):
                record.instance(TierLevel.HOST).flush_pending = True
        with self._span(leg, record, wire, chunks=pipeline.chunks) as span:
            try:
                # No ring on this edge: the whole host extent is claimed
                # above, so chunks land in the tier however far behind the
                # durable hop runs.
                hop.stream(wire)
            except TransferError:
                # Abandon: the hop releases the half-written host extent.
                self._abandon(leg, record, "cancelled mid-transfer", span)
                return
        self._m_bytes[leg.stage].inc(wire)
        hop.commit(pipeline.payload)
        hop.land(flushed=TierLevel.GPU)
        self._record_flush(record, started)
        engine._maybe_crash("after-d2h", record)
        return hop.finish()

    def _stage_durable(self, hop: Hop):
        """The durable hop onto the node-local SSD (the PFS when rerouted),
        commit-at-end.

        ``h2f`` consumes the chunks ``d2h`` publishes.  The GPUDirect
        ``d2s`` is the same hop with no upstream stage: it snapshots the GPU
        copy itself and DMAs each chunk across PCIe before charging the
        drive, with no host staging.
        """
        engine = self.engine
        leg, record, pipeline = hop.leg, hop.record, hop.pipeline
        stage = leg.stage
        upstream = pipeline.upstream_of(stage)
        started = engine.clock.now()
        try:
            if upstream is None:
                payload = pipeline.payload = self._snapshot_gpu(leg, record)
                if payload is None:
                    return
            else:
                record.op.fill("flush-queue", track=leg.track)
                # The preamble needs the post-encode payload and wire sizes,
                # so first wait for the producer to publish its opening chunk.
                if not pipeline.await_upstream(stage, 0):
                    self._bail(leg, record, "upstream abandoned")
                    return
                engine._maybe_crash(f"before-{stage}", record)
                with engine.monitor:
                    if record.discarded:
                        self._abandon(leg, record, "discarded mid-stream")
                        return
                payload = pipeline.payload
            wire = record.wire_size(leg.source, TierLevel.SSD)
            with self._span(leg, record, wire, chunks=pipeline.chunks) as span:
                store = self._durable_put(hop, payload)
                if store is None:
                    span.add(abandoned=True)
                    return
                level = store.level
                if level is TierLevel.PFS:
                    span.add(rerouted=True)
            # The producer's epilogue owns the host instance's
            # WRITE_COMPLETE transition; settle it before flipping FLUSHED.
            if upstream is not None and not pipeline.await_finished(stage, upstream):
                self._bail(leg, record, "producer failed post-commit")
                return
            self._m_bytes[stage].inc(wire)
            pipeline.landed = level
            hop.land(flushed=leg.source, track=leg.track)
            if level is TierLevel.PFS:
                self.catch_up(record)  # rerouted: a copy onto the SSD for its return
            if upstream is None:
                self._record_flush(record, started)
            engine._maybe_crash(f"after-{stage}", record)
            hop.finish()
        finally:
            if not hop.done:
                self._skip_upgrade(pipeline)
        if level is TierLevel.SSD:
            self._drain_backfill()
            repl = self.legs["repl"]
            if repl.stream is not None:
                repl.stream.submit(
                    partial(self._run_stage, repl, record), label=f"repl-{record.ckpt_id}"
                )
        return True

    def _stream_put(self, hop: Hop, store, payload, take=None, ready=None, copy=False) -> bool:
        """The one streamed put of ``payload`` onto ``store``: open, charge
        each chunk on the store's links as it comes in hand, commit after
        the last (if ``ready()`` agrees) — only then is the blob visible.  A
        transient failure retries *the failed chunk* and feeds the store's
        breaker; past the retry budget it propagates.  ``False`` when the
        input stopped coming or the gate said no."""
        engine = self.engine
        record = hop.record
        stored = record.stored_size(store.level)
        hop.claim(
            store, engine.store_key(record), stored, int(payload.size),
            node_id=engine.node_id, cancelled=record.cancel_flush, breaker=store.track,
        )
        if hop.stream(stored, take=take, tier=store.tier, breaker=store.track) is None:
            self._bail(hop.leg, record, "upstream abandoned")
            return False
        if ready is not None and not ready():
            return False
        # Commit-at-end (copy=False: ownership of the snapshot passes to
        # the store, the zero-copy path).
        hop.commit(payload, meta=engine.recovery_meta(record), copy=copy)
        return True

    def _durable_put(self, hop: Hop, payload):
        """Land ``payload`` durably on the first store of the sink chain that
        takes it — the local SSD, then (resilience's reroute) the PFS — the
        write-side mirror of ``engine.read_source``.

        A store is left for the next when its breaker has it blacklisted,
        its retry budget is exhausted (it is dark: outage window, link
        faults) or its blob stays corrupt; the put resumes on the next store
        at the failed chunk — chunks already in hand
        (``pipeline.in_hand``) left the GPU and are not taken again, for a
        one-chunk plan that is the whole object.  Returns the store the
        verified blob landed on (the caller journals it and, off the SSD,
        queues the backfill), or ``None`` after abandoning the hop.
        """
        engine = self.engine
        leg, record, pipeline = hop.leg, hop.record, hop.pipeline
        upstream = pipeline.upstream_of(leg.stage)

        def take(chunk: int, nbytes: int) -> bool:
            # Published upstream (awaited by the hop) or — GPUDirect has no
            # upstream — DMA'd across PCIe here, once.  GPUDirect never
            # crosses the host-site encode, so its PCIe chunks are the
            # stored chunks.
            if chunk >= pipeline.in_hand:
                if upstream is None:
                    leg.attempt(
                        record,
                        lambda: engine.device.d2h_link.transfer(
                            nbytes, cancelled=record.cancel_flush, request=leg.request(record)
                        ),
                    )
                pipeline.in_hand = chunk + 1
            return True

        failure = None
        for n, name in enumerate(self.durable_sinks):
            store, rerouted = getattr(engine, name), n > 0
            if rerouted:
                self._rerouting(hop)
            elif not engine.health.allow(store.track):
                # Blacklisted: don't feed the dark tier another doomed write.
                failure = f"{store.tier} circuit breaker open"
                continue
            what = ("reroute", CAT_REROUTE) if rerouted else (f"{store.tier}-put", CAT_TRANSFER)
            try:
                with record.op.stage(*what, track=leg.track, tier=store.tier):
                    if not self._stream_put(hop, store, payload, take):
                        return None
                if self.verify(leg, record, store, payload):
                    return store
                failure = f"persistent corruption on {store.tier.upper()} put"
            except TransientTransferError as exc:
                failure = f"{type(exc).__name__} mid-transfer on {store.tier}"
            except TransferError:
                failure = "cancelled mid-transfer"
                break  # a discard: no other store wants it either
            hop.abort()
        self._abandon(leg, record, failure)
        return None

    def _rerouting(self, hop: Hop) -> None:
        """The durable hop goes around the dark SSD, straight to the PFS:
        the upgrade stages are moot; count, trace, log."""
        leg, record, pipeline = hop.leg, hop.record, hop.pipeline
        self._skip_upgrade(pipeline)
        self._tally("rerouted")
        self.telemetry.bus.instant(
            "flush-reroute",
            leg.track,
            op_id=record.op.op_id,
            ckpt=record.ckpt_id,
            stage=leg.stage,
            chunk=pipeline.in_hand,
        )
        log.info(
            "p%d: rerouting %s flush of checkpoint %d around the dark SSD to "
            "the PFS at chunk %d/%d",
            self.engine.process_id, leg.stage, record.ckpt_id, pipeline.in_hand, pipeline.chunks,
        )

    def _stage_f2r(self, hop: Hop):
        """SSD read-back: the producer half of the PFS upgrade.

        Runs as its own pipeline stage on its own stream so the read of
        chunk *i+1* overlaps the PFS write of chunk *i* (and the read-back
        of one checkpoint the PFS write of the previous one).  The
        read-back overlaps the not-yet-committed SSD put (the drive streams
        its write buffer through), so the handle takes the size explicitly
        instead of the store index, and the payload comes from the pipeline.
        """
        engine = self.engine
        leg, record, pipeline = hop.leg, hop.record, hop.pipeline
        stage = leg.stage
        # Sizes and the physical payload settle once the producer has run
        # its preamble (host-site encode), signalled by its first published
        # chunk reaching the durable hop.
        if not pipeline.await_upstream(stage, 0):
            self._bail(leg, record, "durable hop abandoned")
            return
        if pipeline.skipped(stage):
            return True
        read_total = record.stored_size(TierLevel.SSD)
        try:
            reader = engine.ssd.open_get(engine.store_key(record), nominal_size=read_total)
        except TransferError as exc:
            self._abandon(leg, record, f"{type(exc).__name__} at read-back open")
            return

        def take(chunk: int, nbytes: int) -> bool:
            if pipeline.skipped(stage) or pipeline.failed("f2p"):
                # Rerouted, or the writer already abandoned (and counted) the
                # upgrade: reading on is waste.
                return False
            # Only this stage's chunks live in a bounce buffer, so only it
            # parks on its consumer.
            if not pipeline.throttle(stage, chunk, engine.config.stream.ring_chunks):
                raise TransferError("stream interrupted")
            return True

        with self._span(leg, record, read_total, chunks=pipeline.chunks) as span:
            try:
                # This read-back shares the read link with demand restores —
                # the QoS tag keeps it behind them.  Retried apart from the
                # PFS write so an SSD failure never counts against the PFS
                # breaker.
                read = hop.stream(
                    read_total, read=reader.read, take=take,
                    around=partial(
                        record.op.stage, "read-back", CAT_TRANSFER, track=leg.track, tier="ssd"
                    ),
                )
            except TransferError:
                self._abandon(leg, record, "read-back cancelled mid-transfer", span)
                return
            if read is None:
                self._bail(leg, record, "durable hop abandoned, or the upgrade is moot")
                return pipeline.skipped(stage) or pipeline.failed("f2p")
        reader.close()
        return hop.finish()

    def _stage_f2p(self, hop: Hop):
        """PFS upgrade: consume read-back chunks, charge the PFS per chunk,
        commit-at-end over a blob the durable hop landed on the SSD."""
        engine = self.engine
        leg, record, pipeline = hop.leg, hop.record, hop.pipeline
        stage = leg.stage
        if pipeline.skipped(stage):
            return True
        record.op.fill("flush-queue", track=leg.track)
        with engine.monitor:
            if record.discarded:
                self._abandon(leg, record, "discarded before PFS flush")
                return
        pfs = engine.pfs
        if pfs is None:
            return True
        if not engine.health.allow(pfs.track):
            # The SSD copy is (or will be) durable; skip the dark PFS rather
            # than feed its breaker another doomed upgrade write.
            self._abandon(leg, record, "pfs circuit breaker open")
            return
        # The read-back's opening chunk implies the producer preamble ran,
        # so the physical payload and stored sizes are settled.
        if not pipeline.await_upstream(stage, 0):
            self._bail(leg, record, "read-back abandoned")
            return
        if pipeline.skipped(stage):
            return True
        payload = pipeline.payload
        wire = record.wire_size(TierLevel.SSD, TierLevel.PFS)

        def durable_landed() -> bool:
            # The upgrade only commits over a blob the durable hop actually
            # landed on the SSD (reroutes skip this stage).
            if not pipeline.await_finished(stage, pipeline.upstream_of("f2r")):
                self._bail(leg, record, "durable hop failed")
                return False
            if pipeline.skipped(stage) or pipeline.landed is not TierLevel.SSD:
                return False
            engine._maybe_crash(f"before-{stage}", record)
            return True

        with self._span(leg, record, wire, chunks=pipeline.chunks) as span:
            try:
                if pipeline.chunks > 1:
                    committed = self._stream_put(
                        hop, pfs, payload,
                        take=lambda chunk, nbytes: not pipeline.skipped(stage),
                        ready=durable_landed, copy=True,
                    )
                else:
                    # One chunk: charge and commit as one whole-object put.
                    committed = durable_landed()
                    if committed:
                        self._put_whole(leg, record, pfs, payload)
            except TransferError as exc:
                self._abandon(leg, record, f"{type(exc).__name__} mid-transfer", span)
                return
            if not committed:
                if pipeline.skipped(stage):
                    return True
                span.add(abandoned=True)
                return
            if not self.verify(leg, record, pfs, payload):
                self._abandon(leg, record, "persistent corruption on PFS put", span)
                return
        self._m_bytes[stage].inc(wire)
        engine.landed(record, pfs, track=leg.track)
        engine._maybe_crash(f"after-{stage}", record)
        return hop.finish()

    def _replicate(self, hop: Hop):
        """Copy the durable checkpoint to its replica targets' SSDs.

        The cluster fabric supplies ``replica_factor - 1`` ring successors
        (``engine.replica_targets``).  Targets are copied in ring order; a
        failed target abandons the remaining ones — replication is
        best-effort beyond the first durable copy.
        """
        engine = self.engine
        leg, record = hop.leg, hop.record
        engine._maybe_crash("before-repl", record)
        record.op.fill("flush-queue", track=leg.track)
        with engine.monitor:
            if record.discarded:
                self._abandon(leg, record, "discarded before replication")
                return
        # Replicas are verbatim SSD blobs and stay outside the chunk
        # accounting: the home node owns the recipe, a successor only keeps a
        # byte-copy for node-failure recovery.
        stored = record.stored_size(TierLevel.SSD)
        targets = engine.replica_targets
        if engine.fabric.membership.active:
            # Under node chaos, skip dead/partitioned targets instead of
            # burning retries into an offline SSD; the repairer restores
            # the factor once the target is back (or replaced).
            engine.fabric.membership.tick()
            targets = engine.fabric.live_replica_targets(engine.node_id)
        for _target_node, target_ssd, target_link in targets:
            with self._span(leg, record, stored) as span:
                try:
                    leg.attempt(
                        record,
                        lambda: copy_whole(
                            engine.ssd,
                            target_ssd,
                            engine.store_key(record),
                            hop=target_link,
                            cancelled=record.cancel_flush,
                            request=leg.request(record),
                            meta=engine.recovery_meta(record),
                        ),
                    )
                except ReproError as exc:
                    self._abandon(leg, record, f"{type(exc).__name__} during replication", span)
                    return
            self._m_bytes["repl"].inc(stored)
            self._tally("replicated")
            engine.landed(record, target_ssd)
        engine._maybe_crash("after-repl", record)
        return True
