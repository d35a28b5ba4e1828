"""The per-process checkpointing engine ("Score").

One :class:`ScoreEngine` per application process (one process per GPU).  It
owns the process's GPU and host cache buffers, the flush cascade, the
prefetch workers, the restore-order queue and the checkpoint catalog, and
implements the blocking semantics of the problem formulation (Section 2):

* ``checkpoint`` blocks only until the data is copied into the GPU cache;
  flushing to slower tiers proceeds asynchronously;
* ``restore`` is served from the GPU cache when possible; otherwise it
  blocks while the prefetcher promotes the checkpoint level by level;
* restore-order hints drive prefetching and the eviction scores;
* consumed checkpoints become evictable everywhere; when the engine runs
  with ``discard_consumed=True`` their pending flushes are abandoned
  (condition (5)).
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import Optional

from repro.clock import Stopwatch
from repro.config import RuntimeConfig
from repro.core.cache import CacheBuffer
from repro.core.catalog import Catalog, CheckpointRecord
from repro.core.flusher import Flusher
from repro.core.lifecycle import CkptState
from repro.core.prefetcher import Prefetcher
from repro.core.restore_queue import RestoreQueue
from repro.core.scoring import ScorePolicy
from repro.core.streaming import ChunkPipeline, chunk_sizes_for, plan_chunks
from repro.core.sync import Monitor
from repro.errors import (
    BackpressureError,
    CheckpointNotFound,
    EngineClosedError,
    FlushTimeoutError,
    InjectedCrash,
    IntegrityError,
    LifecycleError,
    ReproError,
    TransferError,
    TransientTransferError,
)
from repro.faults.retry import RetryPolicy
from repro.log import get_logger
from repro.metrics.recorder import OpEvent, OpKind, Recorder
from repro.predict.queue import SyntheticRestoreQueue
from repro.predict.runtime import PredictRuntime
from repro.reduce.pipeline import Reducer
from repro.sched.request import TransferClass, TransferRequest
from repro.simgpu.memory import DeviceBuffer, checksum_payload
from repro.analysis.slo import SloMonitor
from repro.telemetry import Telemetry
from repro.telemetry.causal import (
    CAT_JOURNAL,
    CAT_QUEUE,
    CAT_REDUCE,
    CAT_RESERVE,
    CAT_RETRY,
    CAT_TRANSFER,
    NULL_OP,
    OpTracer,
)
from repro.tiers.base import TierLevel
from repro.tiers.topology import ProcessContext

log = get_logger(__name__)


class ScoreEngine:
    """Checkpoint runtime for one process."""

    def __init__(
        self,
        context: ProcessContext,
        recorder: Optional[Recorder] = None,
        eviction_policy=None,
        discard_consumed: bool = False,
        verify_restores: bool = True,
        flush_to_pfs: bool = False,
        prefetch_budget_fraction: float = 0.9,
        prefetch_lookahead: int = 64,
        gpudirect: bool = False,
    ) -> None:
        self.context = context
        self.config: RuntimeConfig = context.config
        self.clock = context.clock
        self.scale = context.scale
        self.device = context.device
        self.ssd = context.ssd
        self.pfs = context.pfs
        self.process_id = context.process_id
        self.node_id = context.node.node_id
        self.discard_consumed = discard_consumed
        self.verify_restores = verify_restores
        self.flush_to_pfs = flush_to_pfs
        self.prefetch_budget_fraction = prefetch_budget_fraction
        #: GPUDirect storage (the paper's future-work item): flushes move
        #: GPU cache → SSD directly over PCIe DMA, bypassing the host cache;
        #: promotions likewise read SSD → GPU.  The host tier is unused.
        self.gpudirect = gpudirect
        cluster = context.node.cluster
        #: shared-link QoS arbitration (no-op fleet unless
        #: ``config.sched.enabled``); transfers are tagged with a
        #: :class:`TransferRequest` via :meth:`_sched_request`.
        self.sched = cluster.sched
        #: fault injection + self-healing: the cluster-wide fault domain,
        #: per-tier circuit breakers, the crash-consistent manifest journal
        #: and the chunk-recipe sidecar.  ``resilient`` gates every handling
        #: path; with it off the engine is bit-identical to the historical
        #: runtime (``tests/test_faults_equivalence.py``).
        self.faults = cluster.faults
        self.health = cluster.health
        self.journal = cluster.journal
        self.recipes = cluster.recipes
        self.resilient = self.config.resilience.enabled
        self.retry_policy = (
            RetryPolicy(self.config.resilience, self.config.faults.seed)
            if self.resilient
            else None
        )
        #: ``config.stream.enabled``: objects of two or more
        #: ``stream_chunk_bytes`` plan many chunks and overlap their stages;
        #: off, everything plans one.  Read through :meth:`chunks_for` only.
        self.streaming = bool(self.config.stream.enabled)
        #: set once an injected crash point fires; flush streams drop their
        #: remaining work and public entry points raise
        #: :class:`~repro.errors.InjectedCrash` until re-incarnation.
        self.crashed = threading.Event()
        #: distributed checkpoint fabric (None unless ``config.cluster``
        #: enables it): peer-SSD read routing, ring-replica targets, and
        #: PFS write aggregation (:mod:`repro.cluster.fabric`).
        self.fabric = getattr(cluster, "fabric", None)
        #: SSD replica destinations ``(node_id, ssd, link)`` beyond the home
        #: node: the fabric's ``replica_factor - 1`` ring successors.  Once
        #: durable on the local SSD a copy also crosses the fabric to each,
        #: so a full node failure loses nothing (Section 3.1's complementary
        #: resilience strategy).
        self.replica_targets = (
            self.fabric.replica_targets(self.node_id) if self.fabric is not None else []
        )

        self.monitor = Monitor(self.clock)
        self.telemetry: Telemetry = (
            getattr(context, "telemetry", None) or Telemetry.disabled()
        )
        self._app_track = f"p{self.process_id}-app"
        self._lifecycle_track = f"p{self.process_id}-lifecycle"
        if self.fabric is not None:
            # Per-node trace lanes: stamp this engine's p<pid>-* tracks with
            # its node id so Perfetto and `repro analyze` group per node.
            self.telemetry.bus.bind_process(self.process_id, self.node_id)
            # Membership needs the engine list so a node crash can kill
            # every engine the node hosts.
            self.fabric.membership.register_engine(self)
        #: causal tracing (:mod:`repro.telemetry.causal`): when
        #: ``config.analysis.enabled`` (and the bus records), every
        #: checkpoint/restore/prefetch chain gets an op id that rides on all
        #: its spans; otherwise ``ops`` hands out NULL_OP and the runtime is
        #: bit-identical to the pre-causal build.
        self.causal = bool(self.config.analysis.enabled)
        self.ops = OpTracer(self.telemetry.bus, self.process_id, self.causal)
        self.slo: Optional[SloMonitor] = None
        if self.ops.enabled:
            self.slo = SloMonitor(
                self.config.analysis.slo,
                self.telemetry.bus,
                track=f"p{self.process_id}-slo",
                registry=self.telemetry.registry,
            )
        registry = self.telemetry.registry
        self._m_ckpt_ops = registry.counter("engine.checkpoint.ops")
        self._m_ckpt_bytes = registry.counter("engine.checkpoint.bytes")
        self._m_ckpt_blocked = registry.histogram("engine.checkpoint.blocked_s")
        self._m_ckpt_shed = registry.counter("engine.checkpoint.shed")
        self._m_ckpt_backpressure = registry.histogram("engine.checkpoint.backpressure_s")
        self._m_restore_ops = registry.counter("engine.restore.ops")
        self._m_restore_bytes = registry.counter("engine.restore.bytes")
        self._m_restore_blocked = registry.histogram("engine.restore.blocked_s")
        self._m_queue_depth = registry.gauge("prefetch.queue_depth")
        self.catalog = Catalog(on_transition=self._fsm_hook())
        #: online access-pattern prediction (None unless
        #: ``config.predict.enabled``); when present the hint queue is a
        #: SyntheticRestoreQueue whose predicted overlay feeds the
        #: prefetcher and eviction scoring exactly like explicit hints.
        self.predict: Optional[PredictRuntime] = None
        if self.config.predict.enabled:
            self.queue: RestoreQueue = SyntheticRestoreQueue(
                telemetry=self.telemetry
            )
            self.predict = PredictRuntime(
                self.config.predict,
                self.queue,
                telemetry=self.telemetry,
                process_id=self.process_id,
            )
        else:
            self.queue = RestoreQueue(telemetry=self.telemetry)
        self.recorder = recorder or Recorder(process_id=self.process_id)
        #: restores currently promoting on demand; while non-zero the
        #: prefetcher backs off so demand never loses a freed cache slot to
        #: a speculative prefetch (demand-first priority, Section 4.3.2).
        self.demand_active = 0
        self._closed = False

        #: data-reduction pipeline (None unless ``config.reduce.enabled``);
        #: when present, physical (reduced) sizes flow into every placement,
        #: scoring and transfer decision at or below the reduction site.
        self.reducer: Optional[Reducer] = None
        if self.config.reduce.enabled:
            self.reducer = Reducer(
                self.config.reduce,
                self.scale,
                self.clock,
                telemetry=self.telemetry,
                process_id=self.process_id,
                gpudirect=gpudirect,
                # Durable recipe sidecar: with resilience on, encoded chunk
                # recipes survive a crash so recover_history() can rebuild
                # reduced checkpoints.
                recipes=cluster.recipes if self.resilient else None,
            )
        evict_hooks = []
        if self.reducer is not None:
            evict_hooks.append(self._reduce_detach)
        if self.predict is not None:
            evict_hooks.append(self._predict_evict)
        if not evict_hooks:
            on_evict = None
        elif len(evict_hooks) == 1:
            on_evict = evict_hooks[0]
        else:

            def on_evict(record, level, _hooks=tuple(evict_hooks)):
                for hook in _hooks:
                    hook(record, level)
        policy = eviction_policy or self._default_policy()
        gpu_arena = context.gpu_cache_arena()
        host_arena = context.host_cache_arena()
        self.gpu_cache = CacheBuffer(
            name=f"p{self.process_id}-gpu",
            level=TierLevel.GPU,
            arena=gpu_arena,
            monitor=self.monitor,
            clock=self.clock,
            restore_queue=self.queue,
            flush_estimate=lambda n: self.device.d2h_link.estimate(n),
            policy=policy,
            on_evict=on_evict,
            telemetry=self.telemetry,
        )
        self.host_cache = CacheBuffer(
            name=f"p{self.process_id}-host",
            level=TierLevel.HOST,
            arena=host_arena,
            monitor=self.monitor,
            clock=self.clock,
            restore_queue=self.queue,
            flush_estimate=lambda n: self.ssd.write_link.estimate(n),
            policy=policy,
            usable_capacity=context.host_usable_capacity,
            on_evict=on_evict,
            telemetry=self.telemetry,
        )
        if not self.config.shared_cache:
            # Section 4.1.2 ablation: statically split each cache into a
            # flush half and a prefetch half instead of sharing the space.
            self.gpu_cache.write_boundary = self.scale.align(
                self.gpu_cache.table.capacity // 2
            )
            self.host_cache.write_boundary = self.scale.align(
                self.host_cache.table.capacity // 2
            )
        #: consumer stream of store reads that fill a GPU extent: the
        #: storage read (producer, on the promoting thread) feeds the H2D
        #: crossing chunk by chunk through a ChunkPipeline, mirroring the
        #: flush cascade in the opposite direction.
        self.promote_stream = self.device.create_stream("promote-h2d")
        self.flusher = Flusher(self)
        self.prefetcher = Prefetcher(self, lookahead=prefetch_lookahead)

    def _default_policy(self):
        name = self.config.eviction_policy
        if name == "score":
            return ScorePolicy()
        from repro.baselines.naive import FifoPolicy, LruPolicy  # cycle-free

        return {"lru": LruPolicy(), "fifo": FifoPolicy()}[name]

    def _fsm_hook(self):
        """Catalog transition hook tracing every FSM edge (Fig. 1); ``None``
        when the trace bus is disabled so instances carry no observer."""
        if not self.telemetry.bus.enabled:
            return None
        bus = self.telemetry.bus
        track = self._lifecycle_track
        causal, pid = self.causal, self.process_id

        def hook(ckpt_id, inst, old, new, now):
            bus.instant(
                "fsm",
                track,
                # FSM edges belong to the checkpoint's own op (its id is
                # deterministic, so no record lookup is needed here).
                op_id=f"c{pid}:{ckpt_id}" if causal else None,
                ckpt=ckpt_id,
                level=inst.level.name,
                **{"from": old.value, "to": new.value},
            )

        return hook

    # -- helpers -----------------------------------------------------------------
    def store_key(self, record: CheckpointRecord):
        # Adopted foreign records keep their home engine's key so every
        # tier store (local, peer, PFS) resolves the same durable blob.
        pid = self.process_id if record.home_pid is None else record.home_pid
        return (pid, record.ckpt_id)

    def durable_store_of(self, record: CheckpointRecord):
        """The object store holding this record's durable copy."""
        if record.durable_store is not None:
            return record.durable_store
        if record.durable_level is TierLevel.PFS:
            return self.pfs
        return self.ssd

    def durable_read_source(self, record: CheckpointRecord):
        """The fastest ``(level, store)`` holding a durable copy.

        The PFS flush leg is a *copy* — the node-SSD object stays behind —
        but it advances ``durable_level`` to PFS for resilience accounting.
        Reads must not follow that promotion: a restore that pays the PFS
        links while the local drive still holds the bytes wastes an order
        of magnitude of bandwidth.
        """
        if record.durable_store is not None:
            return record.durable_level, record.durable_store
        store = self.read_source(self.store_key(record))
        return store.level, store

    def read_source(self, key):
        """Resolve ``key`` to the store a read should open: the one ordered
        chain — usable local SSD, a fabric peer's SSD, the PFS, and last the
        local SSD again so that a miss everywhere surfaces its error there.

        The local drive is *usable* while it holds the blob and — where
        something can route around it, i.e. with self-healing on or a
        fabric — is neither inside a hard-outage window nor blacklisted by
        its circuit breaker (``healthy`` never consumes the write-side
        half-open probe).  With neither, reads stay on the local drive
        whatever the fault plan says: the historical runtime, bit for bit.
        """
        ssd = self.ssd
        if ssd.contains(key) and not (
            (self.resilient or self.fabric is not None)
            and (self.faults.hard_outage("ssd") or not self.health.healthy(ssd.track))
        ):
            return ssd
        if self.fabric is not None:
            peer = self.fabric.peer_source(self.node_id, key)
            if peer is not None:
                return peer
        if self.pfs is not None and self.pfs.contains(key):
            return self.pfs
        return ssd

    def _pfs_put(
        self, key, payload, nominal_size, *, cancelled=None, meta=None, request=None
    ) -> float:
        """Whole-object PFS write, routed through the fabric's per-node
        write aggregator when one exists; the direct legacy call (same
        timings, same op count) otherwise."""
        if self.fabric is not None:
            return self.fabric.pfs_put(
                self.node_id,
                key,
                payload,
                nominal_size,
                cancelled=cancelled,
                meta=meta,
                request=request,
            )
        return self.pfs.put(
            key,
            payload,
            nominal_size,
            node_id=self.node_id,
            cancelled=cancelled,
            meta=meta,
            request=request,
        )

    def adopt_foreign(self, home_pid: int, ckpt_id: int) -> CheckpointRecord:
        """Adopt another engine's durable checkpoint into this catalog.

        The cluster service's cross-node restore entry point: the record
        keeps its home process id (:attr:`CheckpointRecord.home_pid`), so
        every store lookup resolves the owner's blob, and promotion routes
        through the fabric — a healthy peer SSD when one holds the copy,
        the PFS otherwise. Idempotent; raises
        :class:`~repro.errors.CheckpointNotFound` when no durable copy is
        reachable from this node.
        """
        self._require_open()
        key = (home_pid, ckpt_id)
        with self.monitor:
            existing = self.catalog.maybe_get(ckpt_id)
            if existing is not None:
                return existing
        store = self.read_source(key)
        if not store.contains(key):
            raise CheckpointNotFound(
                f"checkpoint {ckpt_id} of process {home_pid} has no durable "
                f"copy reachable from node {self.node_id}"
            )
        meta = store.meta(key) or {}
        nominal = store.size_of(key)
        if meta.get("reduced"):
            raise CheckpointNotFound(
                f"reduced checkpoint {ckpt_id} of process {home_pid} cannot "
                "be adopted cross-process (its chunk recipe lives with the "
                "home engine)"
            )
        with self.monitor:
            existing = self.catalog.maybe_get(ckpt_id)
            if existing is not None:
                return existing
            record = self.catalog.create(
                ckpt_id,
                nominal,
                int(meta.get("true_size", nominal)),
                int(meta.get("checksum", 0)),
            )
            record.home_pid = home_pid
            # durable_store stays None: read routing re-resolves the best
            # holder per restore (a peer can die between adopt and read).
            record.durable_level = store.level
            self.monitor.notify_all()
        return record

    def _require_open(self) -> None:
        if self._closed:
            raise EngineClosedError(f"engine p{self.process_id} is closed")
        if self.crashed.is_set():
            raise InjectedCrash(
                f"engine p{self.process_id} hit an injected crash point; "
                "re-incarnate and recover_history() to continue"
            )

    def _maybe_crash(self, point: str, record: CheckpointRecord) -> None:
        """Trip an armed process-crash point (flush-stage granularity).

        Fires at most once per fault plan; the raised
        :class:`~repro.errors.InjectedCrash` unwinds the flush stage before
        its commit (``before-*``) or after it (``after-*``), modeling a
        process killed between flush stages.
        """
        if self.faults.enabled and self.faults.crash_point(point, record.ckpt_id):
            self.crashed.set()
            with self.monitor:
                self.monitor.notify_all()
            raise InjectedCrash(
                f"p{self.process_id}: injected crash at {point} "
                f"(checkpoint {record.ckpt_id})"
            )

    def _journal_commit(self, record: CheckpointRecord, store) -> None:
        """Append a durable-commit entry after a blob landed on ``store``.

        Written *after* the blob is durable: a crash in between leaves at
        worst an unjournaled blob the recovery scan still finds.
        """
        if not (self.resilient and self.config.resilience.journal):
            return
        op = record.op if record.op is not None else NULL_OP
        level = store.level
        with op.stage("journal-commit", CAT_JOURNAL, store=store.track, level=level.name):
            self.journal.commit(
                self.process_id,
                record.ckpt_id,
                store=store.track,
                level=level.name,
                nominal_size=record.stored_size(level),
                meta=self.recovery_meta(record),
            )

    def _journal_retract(self, record: CheckpointRecord, store) -> None:
        """Append a retract entry after deleting ``store``'s blob."""
        if not (self.resilient and self.config.resilience.journal):
            return
        op = record.op if record.op is not None else NULL_OP
        with op.stage("journal-retract", CAT_JOURNAL, store=store.track):
            self.journal.retract(self.process_id, record.ckpt_id, store=store.track)

    def _reduce_detach(self, record: CheckpointRecord, level: TierLevel) -> None:
        """Cache eviction hook: release the extent's chunk references."""
        self.reducer.detach(record, level)

    def _predict_evict(self, record: CheckpointRecord, level: TierLevel) -> None:
        """Cache eviction hook: an unconsumed speculative staging that loses
        its cached copy is abandoned speculation (monitor held)."""
        self.predict.on_evict(record, level, self.clock.now())

    def _reduced_at(self, record: CheckpointRecord, level: TierLevel) -> bool:
        """Whether ``level``'s copy of ``record`` is the physical form."""
        reduction = record.reduction
        return reduction is not None and level >= reduction.site_level

    def _sched_request(
        self,
        tclass: TransferClass,
        deadline: Optional[float] = None,
        cancel_event=None,
        op=NULL_OP,
    ) -> Optional[TransferRequest]:
        """A QoS-tagged transfer request, or ``None`` when scheduling is off
        (untagged transfers take the link's own FIFO arbiter).  ``op`` ties
        the transfer's sched queue wait to its operation's span DAG."""
        if not self.sched.enabled:
            return None
        if cancel_event is not None:
            return TransferRequest(
                tclass,
                engine_id=self.process_id,
                deadline=deadline,
                cancel_event=cancel_event,
                op_id=op.op_id,
            )
        return TransferRequest(
            tclass, engine_id=self.process_id, deadline=deadline, op_id=op.op_id
        )

    # -- write path ------------------------------------------------------------------
    def checkpoint(
        self, ckpt_id: int, buffer: DeviceBuffer, producer: Optional[object] = None
    ) -> float:
        """Checkpoint an application GPU buffer under ``ckpt_id``.

        Blocks until the data sits in the GPU cache (the checkpoint is then
        safe against application overwrites); returns the nominal seconds
        the caller was blocked.

        ``producer`` names the stable identity behind a stream of
        checkpoint versions (a serving session, a revolve state slot) for
        the access-pattern predictor; ignored unless
        ``config.predict.enabled``.

        Under flush-backlog overload, ``SchedConfig`` admission control
        applies first: ``"block"`` waits here until the backlog drains below
        ``max_flush_backlog``, ``"shed"`` raises
        :class:`~repro.errors.BackpressureError` without writing anything.
        """
        self._require_open()
        nominal = self.scale.align(buffer.nominal_size)
        checksum = buffer.checksum()
        started = self.clock.now()
        op = self.ops.checkpoint(ckpt_id, self._app_track)
        with self.telemetry.bus.span(
            "checkpoint", self._app_track, op_id=op.op_id, ckpt=ckpt_id, bytes=nominal
        ):
            with op.stage("admission", CAT_QUEUE):
                backpressured = self._flush_backpressure(ckpt_id)
            with self.monitor:
                record = self.catalog.create(ckpt_id, nominal, buffer.nominal_size, checksum)
                if self.predict is not None:
                    self.predict.on_checkpoint(record, producer, self.clock.now())
            record.op = op
            try:
                encoded = 0.0
                if self.reducer is not None and self.reducer.site == "gpu":
                    # Device-side reduction happens before placement, so the
                    # GPU cache (and everything below) holds the physical form.
                    with op.stage("encode", CAT_REDUCE):
                        encoded = self.reducer.encode(record, buffer.payload)
                with op.stage("reserve-gpu", CAT_RESERVE):
                    waited = self.gpu_cache.reserve(
                        record, CkptState.WRITE_IN_PROGRESS, blocking=True
                    )
                with op.stage("copy-in", CAT_TRANSFER, tier="gpu"):
                    # Device-to-device copy of the protected region into the
                    # cache.
                    copied = self.device.d2d_link.transfer(
                        record.stored_size(TierLevel.GPU)
                    )
                    if self._reduced_at(record, TierLevel.GPU):
                        # The extent models the physical footprint; the
                        # logical bytes live in the reduction image's chunks.
                        self.gpu_cache.write_payload(
                            record, self.reducer.physical_payload(record)
                        )
                    else:
                        self.gpu_cache.write_payload(record, buffer.payload)
                with self.monitor:
                    record.instance(TierLevel.GPU).transition(
                        CkptState.WRITE_COMPLETE, self.clock.now()
                    )
                    if self._reduced_at(record, TierLevel.GPU):
                        self.reducer.attach(record, TierLevel.GPU)
                    self.monitor.notify_all()
                self.flusher.schedule(record)
            except Exception:
                self._rollback_checkpoint(record)
                raise
        # Blocking time = admission wait + encode + eviction wait + cache
        # copy (accounted, so the figure stays exact under aggressive time
        # scaling).
        blocked = backpressured + encoded + (waited or 0.0) + copied
        self._m_ckpt_ops.inc()
        self._m_ckpt_bytes.inc(nominal)
        self._m_ckpt_blocked.observe(blocked)
        self.recorder.record(
            OpEvent(
                kind=OpKind.CHECKPOINT,
                ckpt_id=ckpt_id,
                started_at=started,
                blocked=blocked,
                nominal_bytes=nominal,
            )
        )
        return blocked

    def _rollback_checkpoint(self, record: CheckpointRecord) -> None:
        """Undo a partially-completed ``checkpoint()``.

        Exception safety for the write path: releases the GPU cache slot
        (which detaches any chunk references through the eviction hook),
        rewinds the reducer's delta chain head and recipe, and forgets the
        catalog record — so a failed write leaves no orphaned
        WRITE_IN_PROGRESS extent and no dangling chunk refcounts.
        """
        try:
            self.gpu_cache.release(record)
        except Exception:  # pragma: no cover - teardown must not mask the cause
            log.exception(
                "p%d: checkpoint rollback: GPU slot release failed", self.process_id
            )
        if self.reducer is not None:
            self.reducer.abort(record)
        with self.monitor:
            self.catalog.forget(record.ckpt_id)
            if self.predict is not None:
                self.predict.forget(record.ckpt_id)
            self.monitor.notify_all()
        self.telemetry.bus.instant(
            "checkpoint-rollback", self._app_track, ckpt=record.ckpt_id
        )

    def _flush_backpressure(self, ckpt_id: int) -> float:
        """Engine-level admission control for the write path.

        Bounds how far ``checkpoint()`` may run ahead of the flush cascade:
        when the D2H flush stream holds ``max_flush_backlog`` or more
        pending flushes, either block (returning the nominal seconds spent
        waiting) or shed with :class:`BackpressureError` per
        ``SchedConfig.admission``.  A no-op when scheduling is disabled.
        """
        scfg = self.config.sched
        if not self.sched.enabled or scfg.admission == "off":
            return 0.0
        stream = self.flusher.d2h_stream
        if stream.depth < scfg.max_flush_backlog:
            return 0.0
        if scfg.admission == "shed":
            self._m_ckpt_shed.inc()
            self.telemetry.bus.instant(
                "checkpoint-shed", self._app_track, ckpt=ckpt_id, depth=stream.depth
            )
            raise BackpressureError(
                f"checkpoint {ckpt_id} shed: flush backlog {stream.depth} >= "
                f"{scfg.max_flush_backlog} (admission policy 'shed')"
            )
        with Stopwatch(self.clock) as sw:
            stream.wait_depth_below(scfg.max_flush_backlog)
        self._m_ckpt_backpressure.observe(sw.elapsed)
        return sw.elapsed

    # -- hints ---------------------------------------------------------------------------
    def prefetch_enqueue(self, ckpt_id: int) -> None:
        """Hint: ``ckpt_id`` will be restored after all earlier hints."""
        self._require_open()
        with self.monitor:
            self.queue.enqueue(ckpt_id)
            self._m_queue_depth.set(len(self.queue))
            self.monitor.notify_all()

    def prefetch_start(self) -> None:
        """Allow the prefetcher to start acting on the hints."""
        self._require_open()
        with self.monitor:
            self.queue.start()
            self.monitor.notify_all()

    # -- read path ------------------------------------------------------------------------
    def recover_size(self, ckpt_id: int) -> int:
        """True (unaligned) size of a checkpoint, as the application wrote it."""
        self._require_open()
        with self.monitor:
            return self.catalog.get(ckpt_id).true_size

    def restore(self, ckpt_id: int, buffer: DeviceBuffer) -> float:
        """Restore checkpoint ``ckpt_id`` into an application GPU buffer.

        Returns the nominal seconds the caller was blocked.  The checkpoint
        is marked *consumed* afterwards and will not be served again.
        """
        self._require_open()
        started = self.clock.now()
        op = self.ops.restore(ckpt_id, self._app_track)
        with self.telemetry.bus.span(
            "restore", self._app_track, op_id=op.op_id, parent_id=op.parent_id, ckpt=ckpt_id
        ) as span:
            with self.monitor:
                record = self.catalog.get(ckpt_id)
                if record.consumed:
                    raise LifecycleError(f"checkpoint {ckpt_id} was already consumed")
                distance = self._sample_prefetch_distance(ckpt_id)
                source = self._current_source_level(record)
            span.add(bytes=record.nominal_size, source=source, distance=distance)
            waited = 0.0
            decoded = 0.0
            copied = 0.0
            repairs = 0
            while True:
                # _await_gpu_copy pins the extent (crossover to READ_COMPLETE)
                # before returning, so it cannot be evicted under the copy
                # below.
                waited += self._await_gpu_copy(record, op=op)
                if self._reduced_at(record, TierLevel.GPU):
                    # The GPU extent holds the physical form: reassemble the
                    # logical payload (chunk concat + modeled delta apply and
                    # decode charge) before handing bytes to the application.
                    with op.stage("decode", CAT_REDUCE):
                        payload, step_decoded = self.reducer.reconstruct(
                            record, TierLevel.GPU
                        )
                    decoded += step_decoded
                else:
                    # Copy out to the application buffer (device-to-device).
                    # The GPU instance is READ_COMPLETE (pinned) until
                    # ``_consume`` below, so a zero-copy view of the extent is
                    # safe: this thread is the only one that could force-evict
                    # pinned extents.
                    payload = self.gpu_cache.read_payload(record, copy=False)
                with op.stage("copy-out", CAT_TRANSFER, tier="gpu"):
                    copied += self.device.d2d_link.transfer(record.nominal_size)
                    buffer.copy_from(payload)
                if self.verify_restores:
                    actual = checksum_payload(payload[: buffer.payload.size])
                    if actual != record.checksum:
                        # Self-healing: CRC-scrub the at-rest copies, drop
                        # the corrupt ones, and re-stage from a surviving
                        # pristine copy before giving up.
                        if (
                            self.resilient
                            and repairs < 2
                            and self._repair_corruption(record)
                        ):
                            repairs += 1
                            span.add(repaired=repairs)
                            continue
                        raise IntegrityError(
                            f"checkpoint {ckpt_id} payload corrupt: "
                            f"crc {actual:#010x} != {record.checksum:#010x}"
                        )
                break
            self._consume(record)
        # After the root span closes, so the fill reaches (past) its end and
        # the op's timeline stays gap-free to the last instant.
        op.fill("finalize")
        blocked = waited + decoded + copied
        if self.slo is not None:
            self.slo.observe_restore(self.clock.now(), blocked, op_id=op.op_id)
        self._m_restore_ops.inc()
        self._m_restore_bytes.inc(record.nominal_size)
        self._m_restore_blocked.observe(blocked)
        self.telemetry.registry.counter(f"restore.source.{source.lower()}").inc()
        self.recorder.record(
            OpEvent(
                kind=OpKind.RESTORE,
                ckpt_id=ckpt_id,
                started_at=started,
                blocked=blocked,
                nominal_bytes=record.nominal_size,
                prefetch_distance=distance,
                source_level=source,
            )
        )
        return blocked

    def _repair_corruption(self, record: CheckpointRecord) -> bool:
        """Recover from an at-rest corrupt durable copy found at restore.

        CRC-scrubs every durable copy (local SSD, replica SSDs, PFS) against
        the pristine checksum stamped at put() time, deletes the copies
        whose bytes diverged (journaling the retract), drops the cache
        copies hydrated from them, recomputes the durable placement from
        what survived, and re-flushes the repaired tier from an upper-tier
        pristine copy.  Returns ``False`` when nothing is provably corrupt
        at rest or no pristine copy remains — the caller then raises
        :class:`IntegrityError` as before.
        """
        key = self.store_key(record)
        replicas = [ssd for _node, ssd, _link in self.replica_targets]
        stores = [ssd for ssd in [self.ssd, *replicas] if ssd.contains(key)]
        if self.pfs is not None and self.pfs.contains(key):
            stores.append(self.pfs)
        bad = [store for store in stores if not store.verify(key)]
        if not bad or len(bad) == len(stores):
            return False
        for store in bad:
            store.delete(key)
            if store in (self.ssd, self.pfs):
                # Replicas on other nodes stay outside the chunk accounting.
                if self._reduced_at(record, store.level):
                    self.reducer.detach(record, store.level)
            self._journal_retract(record, store)
            self.telemetry.registry.counter("resilience.corruption_repairs").inc()
            self.telemetry.bus.instant(
                "restore-corrupt", self._app_track, ckpt=record.ckpt_id, tier=store.track
            )
            log.warning(
                "p%d: dropped corrupt at-rest copy of checkpoint %d on %s",
                self.process_id, record.ckpt_id, store.track,
            )
        # The cache copies were hydrated from a corrupt blob: drop them so
        # the re-promotion below re-reads a pristine durable copy.
        self.gpu_cache.release(record)
        self.host_cache.release(record)
        has_ssd = self.ssd.contains(key)
        has_pfs = self.pfs is not None and self.pfs.contains(key)
        replica = next((ssd for ssd in replicas if ssd.contains(key)), None)
        with self.monitor:
            if has_pfs:
                record.durable_level = TierLevel.PFS
            elif has_ssd or replica is not None:
                record.durable_level = TierLevel.SSD
            else:
                record.durable_level = None
            record.durable_store = None if (has_ssd or has_pfs) else replica
            self.monitor.notify_all()
        if has_pfs and not has_ssd:
            # Re-flush the repaired SSD tier from the pristine PFS copy so
            # the node-local fast path heals too (best effort: the PFS copy
            # alone already satisfies durability).
            try:
                payload, _ = self.pfs.get(
                    key,
                    node_id=self.node_id,
                    request=self._sched_request(TransferClass.DEMAND_READ),
                )
                self.ssd.put(
                    key,
                    payload,
                    record.stored_size(TierLevel.SSD),
                    meta=self.recovery_meta(record),
                    request=self._sched_request(TransferClass.CASCADE_FLUSH),
                )
                with self.monitor:
                    if self._reduced_at(record, TierLevel.SSD):
                        self.reducer.attach(record, TierLevel.SSD)
                    self.monitor.notify_all()
                self._journal_commit(record, self.ssd)
            except (TransferError, ReproError):
                log.warning(
                    "p%d: SSD re-flush of repaired checkpoint %d failed; "
                    "reads stay on the PFS",
                    self.process_id, record.ckpt_id,
                )
        return record.durable_level is not None

    def _await_gpu_copy(self, record: CheckpointRecord, op=NULL_OP) -> float:
        """Block until the GPU cache holds a full copy of ``record``;
        returns the nominal seconds charged to the caller.

        Demand promotion runs *inline* in the calling thread: a restore that
        misses the GPU cache promotes the checkpoint level by level itself
        (with blocking reservations and permission to force-evict
        prefetched-but-unconsumed extents — the hint-deviation penalty).
        When the prefetcher is already moving this checkpoint, the restore
        just waits for that transfer to land.

        On success the GPU instance has crossed over to ``READ_COMPLETE``
        (pinned) *within the same monitor section* that observed the copy —
        otherwise a concurrent prefetch reservation could evict a FLUSHED
        extent between the check and the restore's payload read.
        """

        def ready() -> bool:
            inst = record.peek(TierLevel.GPU)
            if inst is None or not inst.has_copy:
                return False
            # Pin: cached write-path instances cross to the read path.
            inst.try_transition(CkptState.READ_COMPLETE, self.clock.now())
            # A speculative staging claimed by a demand restore stops being
            # revocable: the pin must hold through the copy-out below.
            inst.speculative = False
            return True

        with self.monitor:
            if ready():
                return 0.0
            # Pause the prefetcher for the whole demand episode so it never
            # races the restore for freed cache slots or for this record.
            self.demand_active += 1
            if self.predict is not None:
                self.predict.on_demand_miss(record, self.clock.now())
        self.telemetry.bus.instant("gpu-miss", self._app_track, ckpt=record.ckpt_id)
        blocked = 0.0
        try:
            while True:
                step = None
                with self.monitor:
                    if ready():
                        return blocked
                    # Every state change we wait on here (transfers landing,
                    # flushes finishing) ends in a notify_all on this
                    # monitor, so the timeout is only a missed-wakeup guard,
                    # not a polling interval.
                    if record.prefetch_inflight or self._transfer_inflight(record):
                        wait_started = self.clock.now()
                        self.monitor.wait(virtual_timeout=1.0)
                        blocked += self.clock.now() - wait_started
                        op.fill("stall-inflight")
                        continue
                    step = self.promotion_step(record)
                    if step is None:
                        # Only copy is mid-flush; wait for the flusher.
                        wait_started = self.clock.now()
                        self.monitor.wait(virtual_timeout=1.0)
                        blocked += self.clock.now() - wait_started
                        op.fill("stall-flush")
                        continue
                    record.prefetch_inflight = True
                src, dst = step
                seconds: Optional[float] = None
                try:
                    seconds = self.promote_once(
                        record,
                        src,
                        dst,
                        blocking=True,
                        allow_pinned=True,
                        # Highest class: jumps every queue and preempts
                        # in-flight speculative prefetches on the way.
                        request=self._sched_request(TransferClass.DEMAND_READ, op=op),
                        op=op,
                    )
                except TransientTransferError:
                    # Injected transient fault (link fault, tier outage):
                    # back off on the virtual clock before re-resolving so a
                    # dark tier doesn't busy-spin the demand loop.
                    delay = 0.05
                    if self.retry_policy is not None:
                        delay = self.retry_policy.backoff(0, "demand", record.ckpt_id)
                    with op.stage("backoff", CAT_RETRY):
                        self.clock.sleep(delay)
                except ReproError:
                    # The source moved while we promoted; re-resolve.
                    pass
                finally:
                    with self.monitor:
                        record.prefetch_inflight = False
                        self.monitor.notify_all()
                if seconds is not None:
                    blocked += seconds
        finally:
            with self.monitor:
                self.demand_active -= 1
                self.monitor.notify_all()

    def _transfer_inflight(self, record: CheckpointRecord) -> bool:
        """Monitor held: a tier extent of this record is mid-transfer."""
        for inst in record.instances.values():
            if inst.state in (CkptState.READ_IN_PROGRESS, CkptState.WRITE_IN_PROGRESS):
                return True
        return False

    # -- promotion machinery (shared with the prefetcher) ---------------------
    def promotion_step(self, record: CheckpointRecord):
        """Monitor held: next one-level promotion toward the GPU, or None."""
        gpu_inst = record.peek(TierLevel.GPU)
        if gpu_inst is not None and (
            gpu_inst.has_copy or gpu_inst.state is CkptState.READ_IN_PROGRESS
        ):
            return None
        host_inst = record.peek(TierLevel.HOST)
        if host_inst is not None and host_inst.has_copy:
            return (TierLevel.HOST, TierLevel.GPU)
        if host_inst is not None:
            return None  # host extent in flight (being written or promoted)
        if record.durable_level is not None:
            src, _ = self.durable_read_source(record)
            if self.gpudirect:
                # GPUDirect reads pull straight from storage into HBM.
                return (src, TierLevel.GPU)
            return (src, TierLevel.HOST)
        return None  # only copy is mid-flush; the flusher will land it

    def chunks_for(self, nbytes: int) -> int:
        """Chunks in the plan of one ``nbytes`` transfer, either direction:
        one unless streaming is on and the object spans two or more."""
        if not self.streaming:
            return 1
        return len(plan_chunks(nbytes, self.config.stream.stream_chunk_bytes))

    def fuses_host_promotion(self, record: CheckpointRecord, src: TierLevel) -> bool:
        """Whether promoting ``record`` from store ``src`` to the host also
        fills a GPU extent from the same read (and so needs GPU budget).

        One chunk has nothing to overlap, and a host-site decode sits
        between the two hops with no host staging step to run at.
        """
        if self.chunks_for(record.stored_size(src)) < 2:
            return False
        return not self._reduced_at(record, TierLevel.HOST) or self._reduced_at(
            record, TierLevel.GPU
        )

    def promote_once(
        self,
        record: CheckpointRecord,
        src: TierLevel,
        dst: TierLevel,
        blocking: bool,
        allow_pinned: bool,
        request: Optional[TransferRequest] = None,
        op=NULL_OP,
        speculative: bool = False,
        budget_fraction: Optional[float] = None,
        keep_nearer: bool = False,
    ) -> Optional[float]:
        """Move ``record`` one step toward the GPU: the host→GPU hop, or
        the read off a storage tier.  Monitor NOT held.

        Returns the accounted nominal seconds, or ``None`` when a
        non-blocking reservation could not claim space.  ``request`` tags
        the underlying link transfers for QoS arbitration; a preempted or
        shed transfer releases its reservation and raises
        (:class:`TransferError` / :class:`~repro.errors.AdmissionError`).
        ``op`` attributes the reserve/read/decode stages to the demanding
        restore (or the prefetch chain) when causal tracing is on.
        ``speculative`` marks the landed extents as revocable predicted
        stagings rather than pinned hinted prefetches.  ``budget_fraction``
        and ``keep_nearer`` are the prefetch workers' reservation terms
        (see :meth:`CacheBuffer.reserve`), applied to every extent claimed:
        a fused read whose GPU claim the budget refuses lands the host
        extent alone.
        """
        claim = dict(
            blocking=blocking,
            allow_pinned=allow_pinned,
            speculative=speculative,
            budget_fraction=budget_fraction,
            keep_nearer=keep_nearer,
        )
        if src != TierLevel.HOST:
            return self._promote_from_store(record, src, dst, claim, request, op)
        with op.stage("reserve-gpu", CAT_RESERVE):
            waited = self.gpu_cache.reserve(record, CkptState.READ_IN_PROGRESS, **claim)
        if waited is None:
            return None
        # Pin the host source extent for the (short) payload read so
        # eviction cannot reclaim it underneath us; if it vanished
        # while we were reserving, release the reservation and let the
        # caller re-resolve the source level.
        with self.monitor:
            host_inst = record.peek(TierLevel.HOST)
            if host_inst is None or not host_inst.has_copy:
                self.gpu_cache.release(record)
                raise TransferError(
                    f"host copy of checkpoint {record.ckpt_id} vanished "
                    "before promotion"
                )
            host_inst.read_pinned += 1
        decoded = 0.0
        try:
            if self._reduced_at(record, TierLevel.HOST) and not self._reduced_at(
                record, TierLevel.GPU
            ):
                # Host-site reduction: decode on the host before the
                # PCIe crossing, so the GPU cache holds logical bytes
                # and the wire below moves them at logical size.
                with op.stage("decode", CAT_REDUCE):
                    payload, decoded = self.reducer.reconstruct(
                        record, TierLevel.HOST
                    )
            else:
                # Zero-copy: move the bytes host-arena → GPU-arena
                # through a read-only view while the host extent is
                # pinned.  The GPU extent is still READ_IN_PROGRESS, so
                # the early landing is unobservable; the simulated
                # transfer below charges the time.
                payload = self.host_cache.read_payload(record, copy=False)
            self.gpu_cache.write_payload(record, payload)
        finally:
            with self.monitor:
                host_inst.read_pinned -= 1
                self.monitor.notify_all()
        try:
            with op.stage("promote", CAT_TRANSFER, tier="pcie", dst=dst.name):
                seconds = waited + decoded + self.device.h2d_link.transfer(
                    record.wire_size(TierLevel.HOST, TierLevel.GPU), request=request
                )
        except TransferError:
            # Preempted (or cancelled) mid-promotion: the reserved —
            # and eagerly written — GPU extent is released for reuse.
            self.gpu_cache.release(record)
            raise
        self._read_complete(record, TierLevel.GPU)
        return seconds

    def _promote_from_store(
        self,
        record: CheckpointRecord,
        src: TierLevel,
        dst: TierLevel,
        claim: dict,
        request: Optional[TransferRequest],
        op,
    ) -> Optional[float]:
        """Promote ``record`` off a storage tier: the one store read.

        The placement policy is the set of extents the read lands in: the
        host extent alone (``dst == HOST``), the GPU extent alone
        (``dst == GPU``: GPUDirect), or both from one read — the *fused*
        promotion, taken when :meth:`fuses_host_promotion` says the H2D
        crossing can overlap the read, so a hinted checkpoint reaches the
        GPU in ``max(read, h2d)`` instead of ``read + h2d``.  A fused
        promotion whose non-blocking GPU claim loses lands the host extent
        alone rather than shed the whole promotion.

        The read runs on this thread, chunk by chunk; while a GPU extent is
        being filled an ``h2d`` consumer on :attr:`promote_stream` charges
        chunk ``i`` on PCIe once the read published it.  A lone host landing
        has no second stage to overlap with, so it reads one chunk.
        ``claim`` holds the reservation terms of :meth:`promote_once`.
        """
        to_host = dst == TierLevel.HOST
        to_gpu = not to_host or self.fuses_host_promotion(record, src)
        waited = 0.0
        if to_gpu:
            with op.stage("reserve-gpu", CAT_RESERVE):
                gpu_waited = self.gpu_cache.reserve(record, CkptState.READ_IN_PROGRESS, **claim)
            if gpu_waited is None and not to_host:
                return None
            to_gpu = gpu_waited is not None  # a lost fused claim: host alone
            waited += gpu_waited or 0.0
        if to_host:
            with op.stage("reserve-host", CAT_RESERVE):
                host_waited = self.host_cache.reserve(record, CkptState.READ_IN_PROGRESS, **claim)
            if host_waited is None:
                if to_gpu:
                    self.gpu_cache.release(record)
                return None
            waited += host_waited

        pipeline = ChunkPipeline(
            record.ckpt_id,
            self.chunks_for(record.stored_size(src)) if to_gpu else 1,
            self.clock,
            crashed=self.crashed,
        )
        pipeline.add_stage("read")
        if to_gpu:
            pipeline.add_stage("h2d")

        def charge(stage: str, tier: str, chunk: int, nbytes: int, transfer) -> float:
            """Charge one chunk on its link as the pipeline's chunk step."""
            causal = {}
            if op.op_id is not None:
                causal = {"op_id": op.op_id, "category": CAT_TRANSFER, "tier": tier}
            return pipeline.charge_chunk(
                stage, chunk, nbytes, lambda: transfer(nbytes, request=request),
                self.telemetry.bus, self.prefetcher.tracks[dst], causal,
            )

        h2d_seconds = 0.0

        def consume() -> None:
            nonlocal h2d_seconds
            # PCIe carries what the GPU extent stores, whichever tier fed it.
            sizes = chunk_sizes_for(record.stored_size(TierLevel.GPU), pipeline.chunks)
            for i, nbytes in enumerate(sizes):
                if not pipeline.await_upstream("h2d", i):
                    raise TransferError("promotion read abandoned")
                h2d_seconds += charge("h2d", "pcie", i, nbytes, self.device.h2d_link.transfer)

        consumer = consumer_error = None
        try:
            src, store = self.durable_read_source(record)
            tier = src.name.lower()
            with op.stage(
                "promote", CAT_TRANSFER, tier=tier, dst=dst.name, chunks=pipeline.chunks
            ):
                reader = store.open_get(
                    self.store_key(record), node_id=self.node_id, request=request
                )
                if to_gpu:
                    consumer = self.promote_stream.submit(consume, label=f"h2d-{record.ckpt_id}")
                try:
                    # No ring on this edge: the extents reserved above hold
                    # the whole object, so the read never waits for h2d.
                    sizes = chunk_sizes_for(reader.nominal_size, pipeline.chunks)
                    for i, nbytes in enumerate(sizes):
                        charge("read", tier, i, nbytes, reader.read)
                    payload, _ = reader.finish()
                except BaseException:
                    pipeline.fail("read")
                    raise
                finally:
                    # The consumer owns h2d charges; settle it either way so
                    # reservations are never released under a live transfer.
                    if consumer is not None:
                        try:
                            consumer.wait()
                        except BaseException as exc:  # noqa: BLE001 - re-raised below
                            consumer_error = exc
        except BaseException:
            if to_host:
                self.host_cache.release(record)
            if to_gpu:
                self.gpu_cache.release(record)
            raise
        if to_host:
            # Host landing first: it is the staging copy and must be
            # consistent before the GPU extent becomes consumable.
            self.host_cache.write_payload(record, payload)
            self._read_complete(record, TierLevel.HOST)
        if consumer_error is not None:
            # Preempted (or shed) mid-crossing: the GPU claim is rolled
            # back; a fused promotion keeps its host copy, as if the first
            # of two hops had landed.
            self.gpu_cache.release(record)
            raise consumer_error
        if to_gpu:
            self.gpu_cache.write_payload(record, payload)
            self._read_complete(record, TierLevel.GPU)
        if pipeline.chunks == 1:
            # Accounted link seconds, not the clock: a whole-object read
            # must not leak host scheduling noise into restore timings.
            return waited + reader.seconds + h2d_seconds
        return waited + pipeline.active_s

    def _read_complete(self, record: CheckpointRecord, level: TierLevel) -> None:
        """Landing epilogue of a promotion: the extent on ``level`` holds
        the payload and becomes consumable."""
        with self.monitor:
            record.instance(level).transition(CkptState.READ_COMPLETE, self.clock.now())
            if self._reduced_at(record, level):
                self.reducer.attach(record, level)
            self.monitor.notify_all()

    def _current_source_level(self, record: CheckpointRecord) -> str:
        fastest = record.fastest_cached_level()
        if fastest is not None:
            return fastest.name
        if record.durable_level is not None:
            return self.durable_read_source(record)[0].name
        return "IN_FLIGHT"

    def _sample_prefetch_distance(self, ckpt_id: int) -> int:
        """Successive upcoming hints already staged on the GPU (Fig. 7)."""
        count = 0
        for upcoming_id in islice(self.queue.iter_upcoming(), self.prefetcher.lookahead):
            if upcoming_id == ckpt_id:
                continue
            record = self.catalog.maybe_get(upcoming_id)
            if record is None:
                break
            inst = record.peek(TierLevel.GPU)
            if inst is not None and inst.has_copy:
                count += 1
            else:
                break
        return count

    def _consume(self, record: CheckpointRecord) -> None:
        with self.monitor:
            record.consumed = True
            now = self.clock.now()
            for inst in list(record.instances.values()):
                if inst.state is CkptState.WRITE_COMPLETE:
                    inst.try_transition(CkptState.READ_COMPLETE, now)
                inst.try_transition(CkptState.CONSUMED, now)
            self.queue.consume(record.ckpt_id)
            self.prefetcher.forget(record.ckpt_id)
            if self.predict is not None:
                # Scores a pending speculation as a hit and re-ranks the
                # predicted overlay from the freshest history.
                self.predict.on_restore(record, now)
            self._m_queue_depth.set(len(self.queue))
            if self.discard_consumed:
                # Condition (5): pending flushes of a discarded checkpoint
                # need not complete — cancel in-flight transfers and release
                # the snapshot guards so the extents evict immediately.
                record.discarded = True
                record.cancel_flush.set()
                for inst in record.instances.values():
                    inst.flush_pending = False
            self.monitor.notify_all()

    # -- restart recovery --------------------------------------------------------------------
    def recovery_meta(self, record: CheckpointRecord) -> dict:
        """Metadata persisted next to durable copies for restart recovery."""
        meta = {
            "true_size": record.true_size,
            "checksum": record.checksum,
        }
        if record.reduction is not None:
            # The blob is the physical form; reassembly needs the chunk
            # recipe (persisted in the durable RecipeStore sidecar when
            # resilience is on, otherwise only in this incarnation's
            # reducer).
            meta["reduced"] = True
            meta["logical_size"] = record.nominal_size
        return meta

    def recover_history(self) -> int:
        """Rebuild the catalog from the durable tiers after a restart.

        With resilience on, the crash-consistent manifest journal is
        replayed first (commit entries are validated against the stores, so
        a journal entry whose blob vanished is ignored); the store scan then
        fills in anything the journal missed — the node-local SSD, other
        nodes' SSDs holding replicas, and the PFS.  Reduced checkpoints are
        rebuilt from the durable chunk-recipe sidecar and re-attached at
        every durable tier; without a recipe (or without resilience) they
        are skipped with a warning, as before.  Returns the number of
        checkpoints recovered; already-known ids are skipped, so calling
        this on a warm engine is a no-op.
        """
        self._require_open()
        recovered = 0
        sources = [self.ssd]
        for node in self.context.node.cluster.nodes:
            if node.ssd is not self.ssd:
                # Replicas on other nodes' SSDs are recoverable too.
                sources.append(node.ssd)
        if self.pfs is not None:
            sources.append(self.pfs)
        by_track = {store.track: store for store in sources}
        with self.monitor:
            if self.resilient and self.config.resilience.journal:
                for ckpt_id, locations in sorted(
                    self.journal.entries_for(self.process_id).items()
                ):
                    for store_id in sorted(locations):
                        store = by_track.get(store_id)
                        if store is None:
                            continue
                        meta = locations[store_id].get("meta") or {}
                        if self._adopt_durable(ckpt_id, store, meta):
                            recovered += 1
            for store in sources:
                for key in sorted(store.keys_for_process(self.process_id)):
                    if self._adopt_durable(key[1], store, store.meta(key) or {}):
                        recovered += 1
            self.monitor.notify_all()
        return recovered

    def _adopt_durable(self, ckpt_id: int, store, meta: dict) -> bool:
        """Monitor held: adopt one durable blob into the catalog.

        Returns ``True`` when a new record was created; an already-adopted
        checkpoint only gets its reduced image re-attached at this level
        (blobs and chunk references must agree — the validator checks it).
        """
        key = (self.process_id, ckpt_id)
        level = store.level
        if not store.contains(key):
            return False  # journal entry whose blob is gone: not trusted
        reduced = bool(meta.get("reduced"))
        home = store in (self.ssd, self.pfs)
        record = self.catalog.maybe_get(ckpt_id)
        if record is not None:
            if reduced and record.reduction is not None and home:
                self.reducer.attach(record, level)
            return False
        nominal = store.size_of(key)
        if reduced:
            image = (
                self.recipes.load(self.process_id, ckpt_id)
                if (self.resilient and self.reducer is not None)
                else None
            )
            if image is None:
                log.warning(
                    "p%d: skipping reduced checkpoint %d on %s during "
                    "recovery (no durable chunk recipe)",
                    self.process_id, ckpt_id, level.name,
                )
                return False
            logical = int(meta.get("logical_size", image.logical_size))
            record = self.catalog.create(
                ckpt_id,
                logical,
                int(meta.get("true_size", logical)),
                int(meta.get("checksum", 0)),
            )
            record.physical_size = image.physical_size
            record.reduction = image
            if home:
                self.reducer.attach(record, level)
        else:
            record = self.catalog.create(
                ckpt_id,
                nominal,
                int(meta.get("true_size", nominal)),
                int(meta.get("checksum", 0)),
            )
        record.durable_level = level
        if store is not self.ssd and level is TierLevel.SSD:
            record.durable_store = store  # a replica on another node's SSD
        return True

    # -- maintenance ------------------------------------------------------------------------
    def wait_for_flushes(self, timeout: Optional[float] = None) -> float:
        """Block until every pending flush reached its final tier; returns
        the nominal seconds spent waiting (the paper's ~70 s/rank gap
        between the checkpoint and restore phases in the WAIT variant).

        ``timeout`` (nominal seconds) bounds the wait: on expiry a
        :class:`FlushTimeoutError` is raised whose message carries the
        flush-stream depths, the shared-link byte backlog, retry/breaker
        state and — when QoS scheduling is on — the per-link arbiter queue
        snapshots, instead of the historical behaviour of hanging with no
        indication of which stage stalled.  When ``timeout`` is omitted the
        ``RuntimeConfig.flush_wait_timeout`` default applies (``None`` →
        wait forever).
        """
        self._require_open()
        if timeout is None:
            timeout = self.config.flush_wait_timeout
        if timeout is not None and timeout < 0:
            raise ValueError(f"negative timeout: {timeout}")
        with Stopwatch(self.clock) as sw:
            drained = self.flusher.drain(
                timeout=None if timeout is None else self.clock.to_real(timeout)
            )
        if not drained:
            raise FlushTimeoutError(self._flush_stall_diagnostics(timeout))
        return sw.elapsed

    def _flush_stall_diagnostics(self, timeout: float) -> str:
        """One-line stall report for :class:`FlushTimeoutError`."""
        flusher = self.flusher
        depths = [
            f"d2h={flusher.d2h_stream.depth}",
            f"h2f={flusher.h2f_stream.depth}",
        ]
        if flusher.f2r_stream is not None:
            depths.append(f"f2r={flusher.f2r_stream.depth}")
        if flusher.f2p_stream is not None:
            depths.append(f"f2p={flusher.f2p_stream.depth}")
        if flusher.repl_stream is not None:
            depths.append(f"repl={flusher.repl_stream.depth}")
        links = [self.device.d2h_link, self.ssd.write_link, self.ssd.read_link]
        pending = ", ".join(
            f"{link.name}={link.pending_bytes}B" for link in links if link.pending_bytes
        )
        message = (
            f"p{self.process_id}: flushes still pending after {timeout:g}s "
            f"(nominal); stream depths [{', '.join(depths)}]; "
            f"in-flight link bytes [{pending or 'none'}]"
        )
        if self.sched.enabled:
            stalled = [s for s in self.sched.snapshot() if s["depth"]]
            message += f"; scheduler queues {stalled or 'all empty'}"
        if self.resilient:
            message += (
                f"; retries={flusher.retries} rerouted={flusher.rerouted} "
                f"backfill_pending={flusher.backfill_depth}"
                f"; breakers {self.health.snapshot() or 'all closed'}"
            )
        if self.faults.enabled:
            message += f"; injected {self.faults.snapshot()}"
        return message

    def stats(self) -> dict:
        """Counters for diagnostics and the benchmark harness."""
        with self.monitor:
            stats = {
                "process_id": self.process_id,
                "checkpoints": len(self.catalog),
                "gpu_occupancy": self.gpu_cache.table.used_bytes / self.gpu_cache.table.capacity,
                "host_occupancy": self.host_cache.table.used_bytes
                / self.host_cache.table.capacity,
                "gpu_evictions": self.gpu_cache.evictions,
                "host_evictions": self.host_cache.evictions,
                "forced_evictions": self.gpu_cache.forced_evictions
                + self.host_cache.forced_evictions,
                "promotions": self.prefetcher.promotions,
                "abandoned_flushes": self.flusher.abandoned,
                "ssd_objects": self.ssd.object_count(),
            }
            if self.reducer is not None:
                stats["reduction"] = self.reducer.stats()
            if self.predict is not None:
                stats["prediction"] = self.predict.stats()
            if self.resilient:
                stats["resilience"] = {
                    "flush_retries": self.flusher.retries,
                    "rerouted": self.flusher.rerouted,
                    "reflushed": self.flusher.reflushed,
                    "backfilled": self.flusher.backfilled,
                    "backfill_pending": self.flusher.backfill_depth,
                    "breakers": self.health.snapshot(),
                }
            return stats

    def close(self) -> None:
        """Stop background threads; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.prefetcher.stop()
        self.flusher.close()
        self.promote_stream.close(drain=True)

    def __enter__(self) -> "ScoreEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
