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

**The shell.**  The optional features (reduction, the manifest journal,
prediction, SLO tracking) are not asked about at each edge of the life
cycle: they register as *lifecycle observers* (:meth:`ScoreEngine.observe`)
and the engine announces events to whoever registered — with no feature on,
to nobody.  An observer is any object with methods named in :data:`HOOKS`:
``on_<event>`` runs with the monitor held and must not block;
``after_<event>`` runs once the monitor is released and may do I/O.  Two
events have an epilogue every code path shares: :meth:`ScoreEngine.landed`
(a complete copy now exists on a cache level or a durable store) and
:meth:`ScoreEngine.dropped` (a copy is gone).  Data-path calls that return
something (``encode``, ``reconstruct``, ``physical_payload``) are not
events; they stay direct calls on ``engine.reducer``.  Every transfer that
ends in ``landed`` is a *hop* — claim the sinks, charge the links chunk by
chunk, commit, land — written once, in :mod:`repro.core.hop`.
"""

from __future__ import annotations

import threading
from functools import partial
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
from repro.core.hop import Hop, Leg
from repro.core.streaming import ChunkPipeline, plan_chunks
from repro.core.sync import Monitor
from repro.errors import (
    CheckpointNotFound,
    EngineClosedError,
    FlushTimeoutError,
    InjectedCrash,
    IntegrityError,
    LifecycleError,
    TransferError,
)
from repro.faults.journal import JournalObserver
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
    CAT_QUEUE,
    CAT_REDUCE,
    CAT_RESERVE,
    CAT_TRANSFER,
    NULL_OP,
    OpTracer,
    checkpoint_op_id,
)
from repro.tiers.base import TierLevel
from repro.tiers.topology import ProcessContext

log = get_logger(__name__)


#: The lifecycle hooks the engine calls (module docstring; DESIGN.md §5
#: "Engine shell" has who announces each, with what arguments).
HOOKS = (
    "on_created",
    "on_forgotten",
    "on_landed",
    "after_landed",
    "on_dropped",
    "after_dropped",
    "on_demand_miss",
    "on_consumed",
    "on_speculative_staged",
    "after_restored",
)

#: the state a landing completes, by the state the extent was reserved in.
_LANDED_STATE = {
    CkptState.WRITE_IN_PROGRESS: CkptState.WRITE_COMPLETE,
    CkptState.READ_IN_PROGRESS: CkptState.READ_COMPLETE,
}


def _admit_all(_ckpt_id: int) -> float:
    """Admission with no step contributed: nothing to wait for."""
    return 0.0


class ScoreEngine:
    """Checkpoint runtime for one process."""

    def __init__(
        self,
        context: ProcessContext,
        recorder: Optional[Recorder] = None,
        discard_consumed: bool = False,
        flush_to_pfs: bool = False,
        prefetch_budget_fraction: float = 0.9,
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
        self.flush_to_pfs = flush_to_pfs
        self.prefetch_budget_fraction = prefetch_budget_fraction
        #: GPUDirect storage (the paper's future-work item): flushes move
        #: GPU cache → SSD directly over PCIe DMA, bypassing the host cache;
        #: promotions likewise read SSD → GPU.  The host tier is unused.
        self.gpudirect = gpudirect
        cluster = context.node.cluster
        #: shared-link QoS arbitration; ``sched.request`` is the one QoS-tag factory.
        self.sched = cluster.sched
        #: fault injection + self-healing: the cluster-wide fault domain and
        #: per-tier circuit breakers, both inert unless enabled.
        self.faults = cluster.faults
        self.health = cluster.health
        #: ``config.stream.enabled``: objects of two or more
        #: ``stream_chunk_bytes`` plan many chunks and overlap their stages;
        #: off, everything plans one.  Read through :meth:`chunks_for` only.
        self.streaming = bool(self.config.stream.enabled)
        #: set once an injected crash point fires; flush streams drop their
        #: remaining work and public entry points raise
        #: :class:`~repro.errors.InjectedCrash` until re-incarnation.
        self.crashed = threading.Event()

        self.monitor = Monitor(self.clock)
        self.telemetry: Telemetry = (
            getattr(context, "telemetry", None) or Telemetry.disabled()
        )
        self._app_track = f"p{self.process_id}-app"
        #: causal tracing (:mod:`repro.telemetry.causal`): when
        #: ``config.analysis.enabled`` (and the bus records), every
        #: checkpoint/restore/prefetch chain gets an op id that rides on all
        #: its spans; otherwise ``ops`` hands out NULL_OP and the runtime is
        #: bit-identical to the pre-causal build.
        self.ops = OpTracer(
            self.telemetry.bus, self.process_id, self.config.analysis.enabled
        )
        registry = self.telemetry.registry
        self._m_ckpt_ops = registry.counter("engine.checkpoint.ops")
        self._m_ckpt_bytes = registry.counter("engine.checkpoint.bytes")
        self._m_ckpt_blocked = registry.histogram("engine.checkpoint.blocked_s")
        self._m_restore_ops = registry.counter("engine.restore.ops")
        self._m_restore_bytes = registry.counter("engine.restore.bytes")
        self._m_restore_blocked = registry.histogram("engine.restore.blocked_s")
        self._m_queue_depth = registry.gauge("prefetch.queue_depth")
        self._m_swallowed = registry.counter("engine.swallowed_errors")
        self.catalog = Catalog(on_transition=self._fsm_hook())
        self.recorder = recorder or Recorder(process_id=self.process_id)
        #: restores currently promoting on demand; while non-zero the
        #: prefetcher backs off so demand never loses a freed cache slot to
        #: a speculative prefetch (demand-first priority, Section 4.3.2).
        self.demand_active = 0
        self._closed = False
        #: hook name -> the registered observers' bound methods, in
        #: registration order; all empty with no feature on.
        self._hooks = {name: () for name in HOOKS}
        #: consumer stream of the ``h2d`` hop of a store read that fills a GPU
        #: extent, mirroring the flush cascade in the opposite direction.
        self.promote_stream = self.device.create_stream("promote-h2d")
        self.flusher = Flusher(self)
        self._build_features(cluster)
        self._build_caches()
        self.prefetcher = Prefetcher(self)
        #: the read path's table of hops, per destination tier (whose trace
        #: track the first and last share): the store read (on the promoting
        #: thread), the fabric crossing of a read off a peer's SSD, and the H2D
        #: crossing — each fed chunk by chunk through a ChunkPipeline.
        self.promote_legs = {
            dst: (
                Leg(self, "read", track, None),
                Leg(self, "peer-hop", f"node{self.node_id}-peer", "fabric", self.peer_stream),
                Leg(self, "h2d", track, "pcie", self.promote_stream),
            )
            for dst, track in self.prefetcher.tracks.items()
        }

    def _build_features(self, cluster) -> None:
        """Construct the optional features — the one place that reads their
        ``enabled`` flags.  The observers register for the lifecycle events;
        resilience, QoS scheduling and the fabric pick a *path* by the rows
        they contribute here (DESIGN.md §5 "Paths register").  The handles
        stay for the data-path calls that return something and the validator."""
        config = self.config
        resilience, scfg, flusher = config.resilience, config.sched, self.flusher
        self.resilient = resilience.enabled
        #: ``(key, fragment())`` pairs :meth:`stats` adds, one per feature.
        self.stats_fragments = ()
        #: data-reduction pipeline (None unless ``config.reduce.enabled``);
        #: when present, physical (reduced) sizes flow into every placement,
        #: scoring and transfer decision at or below the reduction site.
        self.reducer: Optional[Reducer] = None
        if config.reduce.enabled:
            self.reducer = Reducer(
                config.reduce,
                self.scale,
                self.clock,
                telemetry=self.telemetry,
                process_id=self.process_id,
                gpudirect=self.gpudirect,
                # Durable recipe sidecar: with resilience on, encoded chunk
                # recipes survive a crash so recover_history() can rebuild
                # reduced checkpoints.
                recipes=cluster.recipes if resilience.enabled else None,
            )
            self.observe(self.reducer)
            self.stats_fragments += (("reduction", self.reducer.stats),)
        #: online access-pattern prediction (None unless
        #: ``config.predict.enabled``); when present the hint queue is a
        #: SyntheticRestoreQueue whose predicted overlay feeds the
        #: prefetcher and eviction scoring exactly like explicit hints.
        self.predict: Optional[PredictRuntime] = None
        if config.predict.enabled:
            self.queue: RestoreQueue = SyntheticRestoreQueue(telemetry=self.telemetry)
            self.predict = PredictRuntime(
                config.predict,
                self.queue,
                telemetry=self.telemetry,
                process_id=self.process_id,
                clock=self.clock,
            )
            self.observe(self.predict)
            self.stats_fragments += (("prediction", self.predict.stats),)
        else:
            self.queue = RestoreQueue(telemetry=self.telemetry)
        #: the crash-consistent manifest journal ``recover_history()``
        #: replays (cluster-wide; this engine writes it through an observer).
        self.journal = cluster.journal
        if resilience.enabled and resilience.journal:
            self.observe(JournalObserver(self.journal, self.process_id, self.recovery_meta))
        #: live SLO tracking (None unless causal tracing records).  After
        #: the journal: a landing is journaled before it is stamped durable.
        self.slo: Optional[SloMonitor] = None
        if self.ops.enabled:
            self.slo = SloMonitor(
                config.analysis.slo,
                self.telemetry.bus,
                track=f"p{self.process_id}-slo",
                registry=self.telemetry.registry,
                clock=self.clock,
            )
            self.observe(self.slo)

        # -- the paths: the base rows, then what each feature contributes --
        #: the links :meth:`read_source` tries in order, ``key -> store | None``.
        self.read_chain = [self._ssd_copy, self._pfs_copy]
        #: the step ``checkpoint()`` runs before it writes (seconds waited).
        self.admit = _admit_all
        #: the scrub-and-restage attempts of a restore that read a corrupt copy.
        self.repair_attempts = 0
        #: the flush legs' retry budget (``backoff_for`` reads it too).
        self.retry_policy = None
        self.pfs_put = None if self.pfs is None else partial(self.pfs.put, node_id=self.node_id)
        self.fabric, self.replica_targets, self.peer_stream = None, [], None
        if scfg.enabled:
            if scfg.admission != "off":
                self.admit = flusher.backpressure
            flusher.stall_fragments += (self.sched.stall_report,)
        if resilience.enabled:
            self.retry_policy = RetryPolicy(resilience, config.faults.seed)
            self.repair_attempts = 2
            # Something can route around the local drive: gate it on health.
            self.read_chain[0] = self._usable_ssd
            flusher.policy = flusher.retrying
            if resilience.reroute and self.pfs is not None:
                flusher.durable_sinks += ("pfs",)
            if resilience.reverify:
                flusher.verify = flusher.reverify
            if resilience.backfill:
                flusher.catch_up = flusher.queue_backfill
            self.stats_fragments += (("resilience", flusher.resilience_stats),)
            flusher.stall_fragments += (flusher.resilience_report,)
        if config.faults.enabled:
            flusher.stall_fragments += (self.faults.stall_report,)
        if config.cluster.enabled:
            fabric = self.fabric = cluster.fabric  # (:mod:`repro.cluster.fabric`)
            #: SSD replica destinations ``(node_id, ssd, link)``: the ring's next
            #: ``replica_factor - 1`` nodes, so a node failure loses nothing (Section 3.1).
            self.replica_targets = fabric.replica_targets(self.node_id)
            self.pfs_put = partial(fabric.pfs_put, self.node_id)  # aggregated
            self.read_chain[0] = self._usable_ssd
            if config.cluster.peer_reads:
                self.read_chain.insert(1, self._peer_copy)
                #: worker of the ``peer-hop`` stage of a read off a peer's SSD.
                self.peer_stream = self.device.create_stream("promote-peer")
            # Per-node trace lanes (Perfetto, `repro analyze`), and the engine
            # list a node crash kills.
            self.telemetry.bus.bind_process(self.process_id, self.node_id)
            fabric.membership.register_engine(self)
        flusher.build()

    def _build_caches(self) -> None:
        context = self.context
        name = self.config.eviction_policy
        if name == "score":
            policy = ScorePolicy()
        else:
            from repro.baselines.naive import FifoPolicy, LruPolicy  # cycle-free

            policy = {"lru": LruPolicy(), "fifo": FifoPolicy()}[name]
        # Evictions enter the drop epilogue; with nobody listening the
        # caches skip the call altogether.
        on_evict = self.dropped if self._hooks["on_dropped"] else None

        def cache(level: TierLevel, arena, flush_link, **extra) -> CacheBuffer:
            return CacheBuffer(
                name=f"p{self.process_id}-{level.name.lower()}",
                level=level,
                arena=arena,
                monitor=self.monitor,
                clock=self.clock,
                restore_queue=self.queue,
                flush_estimate=flush_link.estimate,
                policy=policy,
                on_evict=on_evict,
                telemetry=self.telemetry,
                **extra,
            )

        self.gpu_cache = cache(TierLevel.GPU, context.gpu_cache_arena(), self.device.d2h_link)
        self.host_cache = cache(
            TierLevel.HOST,
            context.host_cache_arena(),
            self.ssd.write_link,
            usable_capacity=context.host_usable_capacity,
        )
        if not self.config.shared_cache:
            # Section 4.1.2 ablation: statically split each cache into a
            # flush half and a prefetch half instead of sharing the space.
            for split in (self.gpu_cache, self.host_cache):
                split.write_boundary = self.scale.align(split.table.capacity // 2)

    # -- the shell: lifecycle events ---------------------------------------------
    def observe(self, observer) -> None:
        """Register a lifecycle observer: each method it has that is named
        in :data:`HOOKS` is called at that event, after the observers
        registered before it.  An ``on_dropped`` observer registered after
        construction sees cache evictions only if one was registered
        before it (the caches were told whether anyone listens)."""
        for name in self._hooks:
            hook = getattr(observer, name, None)
            if hook is not None:
                self._hooks[name] += (hook,)

    def notify(self, name: str, *args) -> None:
        """Call one hook of every observer that has it.  ``on_*``: the
        caller holds the monitor; ``after_*``: it must not."""
        for hook in self._hooks[name]:
            hook(*args)

    def _owns(self, where) -> bool:
        """Whether ``where`` is one of this engine's own tiers — its caches,
        its node's SSD, the PFS — rather than a replica on another node's
        SSD, which raises no durable level and stays outside the chunk
        accounting (the home node owns the recipe; a successor only keeps a
        byte-copy for node-failure recovery)."""
        return where.level < TierLevel.SSD or where is self.ssd or where is self.pfs

    def landed(
        self,
        record: CheckpointRecord,
        where,
        flushed: Optional[TierLevel] = None,
        track: Optional[str] = None,
    ) -> None:
        """Landing epilogue: a complete (verified) copy of ``record`` now
        exists on ``where`` — a cache, whose reserved extent holds the
        payload, or a durable store, whose blob is committed.  Monitor NOT
        held.

        Under the monitor: the extent completes the state it was reserved
        in, or the record's durable level rises; the ``on_landed``
        observers run (chunk attach); the ``flushed`` source copy one level
        up becomes evictable; waiters are notified.  After it, for a
        durable store: the ``after_landed`` observers (journal commit, then
        the first-``durable`` instant and SLO sample on ``track``).
        """
        level = where.level
        durable = level >= TierLevel.SSD
        first_durable = False
        with self.monitor:
            if self._owns(where):
                now = self.clock.now()
                if not durable:
                    inst = record.instance(level)
                    inst.transition(_LANDED_STATE.get(inst.state, inst.state), now)
                elif record.durable_level is None or record.durable_level < level:
                    first_durable = record.durable_level is None
                    record.durable_level = level
                self.notify("on_landed", record, where)
                source = None if flushed is None else record.peek(flushed)
                if source is not None:
                    source.flush_pending = False
                    source.try_transition(CkptState.FLUSHED, now)
            self.monitor.notify_all()
        if durable:
            self.notify("after_landed", record, where, first_durable, track)

    def dropped(self, record: CheckpointRecord, where) -> None:
        """Drop epilogue: ``where``'s copy of ``record`` is gone — an extent
        evicted or released (the caches call this from inside their own
        monitor section), or a durable blob the caller just deleted.

        Under the monitor: the ``on_dropped`` observers (chunk detach,
        abandoned speculation), then notify.  After it, for a durable
        store: the ``after_dropped`` observers (journal retract).
        """
        with self.monitor:
            if self._owns(where):
                self.notify("on_dropped", record, where)
            self.monitor.notify_all()
        if where.level >= TierLevel.SSD:
            self.notify("after_dropped", record, where)

    def _fsm_hook(self):
        """Catalog transition hook tracing every FSM edge (Fig. 1); ``None``
        when the trace bus is disabled so instances carry no observer."""
        if not self.telemetry.bus.enabled:
            return None
        bus = self.telemetry.bus
        track = f"p{self.process_id}-lifecycle"
        causal, pid = self.ops.enabled, self.process_id

        def hook(ckpt_id, inst, old, new, now):
            bus.instant(
                "fsm",
                track,
                # FSM edges belong to the checkpoint's own op (its id is
                # deterministic, so no record lookup is needed here).
                op_id=checkpoint_op_id(pid, ckpt_id) if causal else None,
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
        """Resolve ``key`` to the store a read should open: the first one a link
        of :attr:`read_chain` names, else the local SSD (a miss everywhere
        surfaces its error there)."""
        for link in self.read_chain:
            store = link(key)
            if store is not None:
                return store
        return self.ssd

    def _ssd_copy(self, key):
        return self.ssd if self.ssd.contains(key) else None

    def _usable_ssd(self, key):
        """The local copy unless the drive is in a hard outage or its breaker
        is open (``healthy`` never consumes the write-side half-open probe)."""
        ssd = self.ssd
        if not ssd.contains(key) or self.faults.hard_outage("ssd"):
            return None
        return ssd if self.health.healthy(ssd.track) else None

    def _peer_copy(self, key):
        return self.fabric.peer_source(self.node_id, key)

    def _pfs_copy(self, key):
        return self.pfs if self.pfs is not None and self.pfs.contains(key) else None

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
            record = self._record_for_blob(ckpt_id, nominal, meta)
            record.home_pid = home_pid
            # durable_store stays None: read routing re-resolves the best
            # holder per restore (a peer can die between adopt and read).
            record.durable_level = store.level
            self.monitor.notify_all()
        return record

    def _record_for_blob(self, ckpt_id: int, nominal: int, meta: dict) -> CheckpointRecord:
        """Monitor held: a catalog record for a durable blob found on a
        store, from the recovery metadata committed beside it."""
        return self.catalog.create(
            ckpt_id,
            nominal,
            int(meta.get("true_size", nominal)),
            int(meta.get("checksum", 0)),
        )

    def _require_open(self) -> None:
        if self._closed:
            raise EngineClosedError(f"engine p{self.process_id} is closed")
        if self.crashed.is_set():
            raise InjectedCrash(
                f"engine p{self.process_id} hit an injected crash point; "
                "re-incarnate and recover_history() to continue"
            )

    def swallowed(self, what: str, track: str, **args) -> None:
        """From an ``except`` block whose exception goes no further: counted
        (``engine.swallowed_errors``), traced (``what`` on ``track``), logged."""
        self._m_swallowed.inc()
        self.telemetry.bus.instant(what, track, **args)
        log.exception("p%d: %s %s", self.process_id, what, args)

    def _maybe_crash(self, point: str, record: CheckpointRecord) -> None:
        """Trip an armed process-crash point (flush-stage granularity).

        Fires at most once per fault plan; the raised
        :class:`~repro.errors.InjectedCrash` unwinds the flush stage before
        its commit (``before-*``) or after it (``after-*``), modeling a
        process killed between flush stages.
        """
        if self.faults.crash_point(point, record.ckpt_id):
            self.crashed.set()
            with self.monitor:
                self.monitor.notify_all()
            raise InjectedCrash(
                f"p{self.process_id}: injected crash at {point} "
                f"(checkpoint {record.ckpt_id})"
            )

    def _reduced_at(self, record: CheckpointRecord, level: TierLevel) -> bool:
        """Whether ``level``'s copy of ``record`` is the physical form."""
        reduction = record.reduction
        return reduction is not None and level >= reduction.site_level

    def encode_at(self, site: str, record: CheckpointRecord, payload, op, track=None) -> float:
        """Reduce ``record`` if ``site`` ("gpu" | "host") is where this
        engine encodes; returns the nominal seconds charged (0 otherwise)."""
        if self.reducer is None or self.reducer.site != site or record.reduction is not None:
            return 0.0
        with op.stage("encode", CAT_REDUCE, track=track):
            return self.reducer.encode(record, payload)

    def stored_payload(self, record: CheckpointRecord, level: TierLevel, payload):
        """The bytes ``level`` stores for ``record``, given its logical
        ``payload``: at or below the reduction site the extent models the
        physical footprint and the logical bytes live in the reduction
        image's chunks."""
        if self._reduced_at(record, level):
            return self.reducer.physical_payload(record)
        return payload

    def _payload_above(self, record: CheckpointRecord, cache: CacheBuffer, op, dst=None):
        """``(payload, decode seconds)`` of ``cache``'s copy as the next
        tier up holds it (``dst``; ``None`` is the application).  Where the
        reduction site lies between the two, the logical payload is
        reassembled here (chunk concat + modeled delta apply and decode
        charge) — before the PCIe crossing for a host-site reduction, so the
        wire moves logical bytes.  Otherwise a zero-copy read-only view:
        the caller must hold the extent pinned for as long as it uses it.
        """
        image = record.reduction
        if (
            image is not None
            and cache.level >= image.site_level
            and (dst is None or dst < image.site_level)
        ):
            with op.stage("decode", CAT_REDUCE):
                return self.reducer.reconstruct(record, cache.level)
        return cache.read_payload(record, copy=False), 0.0

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
        applies first (the :attr:`admit` step): ``"block"`` waits here until
        the backlog drains below ``max_flush_backlog``, ``"shed"`` raises
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
                backpressured = self.admit(ckpt_id)
            with self.monitor:
                record = self.catalog.create(ckpt_id, nominal, buffer.nominal_size, checksum)
                self.notify("on_created", record, producer)
            record.op = op
            try:
                # Device-side reduction happens before placement, so the
                # GPU cache (and everything below) holds the physical form.
                encoded = self.encode_at("gpu", record, buffer.payload, op)
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
                    self.gpu_cache.write_payload(
                        record, self.stored_payload(record, TierLevel.GPU, buffer.payload)
                    )
                self.landed(record, self.gpu_cache)
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
        (the drop epilogue detaches any chunk references), forgets the
        catalog record and announces ``forgotten`` (the reducer rewinds its
        delta chain head and recipe) — so a failed write leaves no orphaned
        WRITE_IN_PROGRESS extent and no dangling chunk refcounts.
        """
        try:
            self.gpu_cache.release(record)
        except Exception:  # teardown must not mask the cause
            self.swallowed("checkpoint-rollback-error", self._app_track, ckpt=record.ckpt_id)
        with self.monitor:
            self.catalog.forget(record.ckpt_id)
            self.notify("on_forgotten", record)
            self.monitor.notify_all()
        self.telemetry.bus.instant(
            "checkpoint-rollback", self._app_track, ckpt=record.ckpt_id
        )

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
                source, resolved = self._current_source(record)
            span.add(bytes=record.nominal_size, source=source, distance=distance)
            waited = 0.0
            decoded = 0.0
            copied = 0.0
            repairs = 0
            while True:
                # _await_gpu_copy pins the extent (crossover to READ_COMPLETE)
                # before returning, so it cannot be evicted under the copy
                # below.
                waited += self._await_gpu_copy(record, op, None if repairs else resolved)
                # The GPU instance is READ_COMPLETE (pinned) until
                # ``_consume`` below, so a zero-copy view of the extent is
                # safe: this thread is the only one that could force-evict
                # pinned extents.
                payload, step_decoded = self._payload_above(record, self.gpu_cache, op)
                decoded += step_decoded
                with op.stage("copy-out", CAT_TRANSFER, tier="gpu"):
                    # Copy out to the application buffer (device-to-device).
                    copied += self.device.d2d_link.transfer(record.nominal_size)
                    buffer.copy_from(payload)
                actual = checksum_payload(payload[: buffer.payload.size])
                if actual == record.checksum:
                    break
                # Self-healing: CRC-scrub the at-rest copies, drop the
                # corrupt ones, and re-stage from a surviving pristine copy
                # before giving up.
                if not (repairs < self.repair_attempts and self._repair_corruption(record)):
                    raise IntegrityError(
                        f"checkpoint {ckpt_id} payload corrupt: "
                        f"crc {actual:#010x} != {record.checksum:#010x}"
                    )
                repairs += 1
                span.add(repaired=repairs)
            self._consume(record)
        # After the root span closes, so the fill reaches (past) its end and
        # the op's timeline stays gap-free to the last instant.
        op.fill("finalize")
        blocked = waited + decoded + copied
        self.notify("after_restored", record, blocked, op)
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
            self.dropped(record, store)
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
            # Heal the node-local fast path too, on the rerouted flushes'
            # catch-up path (best effort: the PFS copy alone already
            # satisfies durability; a failed copy stays queued).
            self.flusher.backfill(record)
        return record.durable_level is not None

    def _await_gpu_copy(self, record: CheckpointRecord, op=NULL_OP, resolved=None) -> float:
        """Block until the GPU cache holds a full copy of ``record``;
        returns the nominal seconds charged to the caller.  ``resolved``: the
        durable ``(level, store)`` the caller just looked up, for the first step.

        Demand promotion runs *inline* in the calling thread: a restore that
        misses the GPU cache promotes the checkpoint level by level itself,
        one :meth:`Prefetcher.step` per level, with blocking reservations and
        permission to force-evict prefetched-but-unconsumed extents (the
        hint-deviation penalty).  When the prefetcher is already moving this
        checkpoint, the restore just waits for that transfer to land.

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
            self.notify("on_demand_miss", record)
        self.telemetry.bus.instant("gpu-miss", self._app_track, ckpt=record.ckpt_id)
        blocked = 0.0
        try:
            while True:
                with self.monitor:
                    if ready():
                        return blocked
                    moving = record.prefetch_inflight or record.in_transfer()
                    step = None if moving else self.promotion_step(record, resolved)
                    resolved = None  # good for the first look only: stale after
                    if step is None:
                        # Every state change we wait on here (transfers
                        # landing, flushes finishing) ends in a notify_all
                        # on this monitor, so the timeout is only a
                        # missed-wakeup guard, not a polling interval.
                        wait_started = self.clock.now()
                        self.monitor.wait(virtual_timeout=1.0)
                        blocked += self.clock.now() - wait_started
                        # Not moving: the only copy is mid-flush.
                        op.fill("stall-inflight" if moving else "stall-flush")
                        continue
                    record.prefetch_inflight = True
                seconds, _ = self.prefetcher.step(
                    record, step, op,
                    # Highest class: jumps every queue and preempts
                    # in-flight speculative prefetches on the way.
                    self.sched.request(TransferClass.DEMAND_READ, self.process_id, op_id=op.op_id),
                    "demand", blocking=True, allow_pinned=True,
                )
                if seconds is not None:
                    blocked += seconds
        finally:
            with self.monitor:
                self.demand_active -= 1
                self.monitor.notify_all()

    # -- promotion machinery (shared with the prefetcher) ---------------------
    def promotion_step(self, record: CheckpointRecord, resolved=None):
        """Monitor held: next one-level promotion toward the GPU, or None:
        ``(src, dst, store)``, the store being what a storage ``src`` resolved
        to (``resolved`` when the caller just looked it up), handed on to
        :meth:`promote_once` so that one promotion resolves its source once."""
        gpu_inst = record.peek(TierLevel.GPU)
        if gpu_inst is not None and (
            gpu_inst.has_copy or gpu_inst.state is CkptState.READ_IN_PROGRESS
        ):
            return None
        host_inst = record.peek(TierLevel.HOST)
        if host_inst is not None and host_inst.has_copy:
            return (TierLevel.HOST, TierLevel.GPU, None)
        if host_inst is not None:
            return None  # host extent in flight (being written or promoted)
        if record.durable_level is not None:
            src, store = resolved or self.durable_read_source(record)
            # GPUDirect reads pull straight from storage into HBM.
            return (src, TierLevel.GPU if self.gpudirect else TierLevel.HOST, store)
        return None  # only copy is mid-flush; the flusher will land it

    def chunks_for(self, nbytes: int, store=None) -> int:
        """Chunks in the plan of one ``nbytes`` transfer, either direction:
        one unless streaming is on, or the source ``store`` is across the fabric
        (which has no store-and-forward form) — and the object spans two or more.
        ``stream.enabled`` stays a flag as each plan measured better where it runs
        (EXPERIMENTS.md): one chunk on ``durable_demand``, many on ``transport_on``."""
        if not (self.streaming or (store is not None and store.across_fabric)):
            return 1
        return len(plan_chunks(nbytes, self.config.stream.stream_chunk_bytes))

    def fuses_host_promotion(self, record: CheckpointRecord, src: TierLevel, store=None) -> bool:
        """Whether promoting ``record`` from ``store`` (at level ``src``) to
        the host also fills a GPU extent from the same read (and so needs GPU
        budget).

        One chunk has nothing to overlap, and a host-site decode sits
        between the two hops with no host staging step to run at.
        """
        if self.chunks_for(record.stored_size(src), store) < 2:
            return False
        return not self._reduced_at(record, TierLevel.HOST) or self._reduced_at(
            record, TierLevel.GPU
        )

    def promote_once(
        self,
        record: CheckpointRecord,
        src: TierLevel,
        dst: TierLevel,
        request: Optional[TransferRequest] = None,
        op=NULL_OP,
        store=None,
        **claim,
    ) -> Optional[float]:
        """Move ``record`` one step toward the GPU, from its host copy or off
        a storage tier: the hops of the read path (``core/hop.py``; DESIGN.md
        §5 "One read path").  Monitor NOT held.

        The placement policy is the set of extents claimed: the GPU extent
        alone (the host→GPU hop; off a store, ``dst == GPU``: GPUDirect), the
        host extent alone (``dst == HOST``), or both from one read — the
        *fused* promotion, taken when :meth:`fuses_host_promotion` says the
        H2D crossing can overlap the read (``max(read, h2d)`` instead of
        ``read + h2d``).  A store read runs on this thread, chunk by chunk;
        while it also fills a GPU extent, the ``h2d`` hop on
        :attr:`promote_stream` charges chunk ``i`` on PCIe once the stage
        above published it.  Off a peer's SSD (``store.across_fabric``) the
        plan is always chunks and a stage runs in between, the GPU claim
        granted or not: ``read`` charges the holder's drive, ``peer-hop`` on
        :attr:`peer_stream` the fabric.  With nothing to overlap the plan is
        one chunk.

        ``store`` is what :meth:`promotion_step` resolved ``src`` to (a direct
        call resolves here; after a failure the caller's next step does).
        Returns the accounted nominal seconds — claim waits, decode and the
        pipeline's critical path — or ``None`` when a
        non-blocking reservation could not claim space.  ``request`` tags
        the link transfers for QoS arbitration; a preempted or shed transfer
        releases its claims and raises (:class:`TransferError` /
        :class:`~repro.errors.AdmissionError`).  ``op`` attributes the
        reserve/read/decode stages to the demanding restore (or the prefetch
        chain).  ``claim`` holds the reservation terms of
        :meth:`CacheBuffer.reserve`, applied to every extent claimed: a
        fused read whose GPU claim the budget refuses lands the host extent
        alone rather than shed the promotion.
        """
        from_store = src != TierLevel.HOST
        to_host = dst == TierLevel.HOST
        if from_store and store is None:
            src, store = self.durable_read_source(record)
        to_gpu = not to_host or self.fuses_host_promotion(record, src, store)
        read_leg, hop_leg, h2d_leg = self.promote_legs[dst]
        state = CkptState.READ_IN_PROGRESS
        decoded = 0.0
        failed = {}  # downstream hop -> what its stage raised
        with Hop(h2d_leg, record, op=op, tag=request) as cross, Hop(
            hop_leg, record, op=op, tag=request
        ) as via, Hop(read_leg, record, op=op, tag=request) as read:
            if to_gpu:
                with op.stage("reserve-gpu", CAT_RESERVE):
                    to_gpu = cross.claim(
                        self.gpu_cache, record, state, self.device.h2d_link, **claim
                    ) is not None  # a lost fused claim: host alone
                if not (to_gpu or to_host):
                    return None
            if to_host:
                with op.stage("reserve-host", CAT_RESERVE):
                    # No link of its own: the store read carries the bytes.
                    if read.claim(self.host_cache, record, state, None, **claim) is None:
                        return None
            waited = sum(handle.waited for _where, handle in cross.claims + read.claims)
            across = from_store and store.across_fabric
            pipeline = ChunkPipeline(
                record.ckpt_id,
                # A lone stage has nothing to overlap.
                self.chunks_for(record.stored_size(src), store)
                if from_store and (to_gpu or across)
                else 1,
                self.clock,
                crashed=self.crashed,
            )
            staged = across and pipeline.chunks > 1  # one chunk: both legs inside the read
            for hop, runs in ((read, from_store), (via, staged), (cross, to_gpu)):
                if runs:
                    hop.pipeline = pipeline
                    pipeline.add_stage(hop.leg.stage)

            def run(hop: Hop, total: int, charge=None) -> None:
                """A stage fed by the one above it (on its leg's worker)."""
                try:
                    if hop.stream(total, read=charge) is None:
                        raise TransferError("promotion read abandoned")
                except BaseException:
                    pipeline.fail(hop.leg.stage)  # first: its consumer waits on it
                    raise

            # PCIe carries what the GPU extent stores, whichever tier fed it.
            gpu_bytes = record.stored_size(TierLevel.GPU)
            if from_store:
                tier = src.name.lower()
                with op.stage(
                    "promote", CAT_TRANSFER, tier=tier, dst=dst.name, chunks=pipeline.chunks
                ):
                    reader = store.open_get(
                        self.store_key(record), node_id=self.node_id, request=request
                    )
                    charge, fed = reader.read, []
                    if staged:
                        charge = reader.read_drive
                        fed.append((via, reader.nominal_size, reader.cross))
                    if to_gpu:
                        fed.append((cross, gpu_bytes))
                    consumers = [
                        (hop, hop.leg.stream.submit(partial(run, hop, *terms), label=hop.leg.stage))
                        for hop, *terms in fed
                    ]
                    try:
                        # No ring on these edges: the extents claimed above hold
                        # the whole object, so the read never waits downstream.
                        read.stream(reader.nominal_size, read=charge, tier=tier)
                    except BaseException:
                        pipeline.fail("read")  # first: the consumers wait on it
                        raise
                    finally:
                        # Each consumer owns its stage's charges; settle them
                        # either way so claims are never aborted under a live
                        # transfer.
                        for hop, event in consumers:
                            try:
                                event.wait()
                            except BaseException as exc:  # noqa: BLE001 - re-raised below
                                failed[hop] = exc
                    if via in failed:
                        raise failed[via]  # the bytes never reached this node
                    # After the hop settled: a failover decides whose payload.
                    payload, _ = reader.finish()
            else:
                # The host extent stays pinned through the crossing, so
                # eviction cannot reclaim it underneath us; if it vanished while
                # we were reserving, the caller re-resolves the source level.
                cross.pinned = self.host_cache.open_get(record)
                payload, decoded = self._payload_above(record, self.host_cache, op, dst)
                with op.stage("promote", CAT_TRANSFER, tier="pcie", dst=dst.name):
                    run(cross, gpu_bytes)
            # Host landing first: it is the staging copy and must be
            # consistent before the GPU extent becomes consumable.
            read.commit(payload)
            read.land()
            if cross in failed:
                # Preempted (or shed) mid-crossing: the GPU claim is rolled
                # back; a fused promotion keeps its host copy, as if the
                # first of two hops had landed.
                raise failed[cross]
            cross.commit(payload)
            cross.land()
            cross.done = via.done = read.done = True
        # Accounted link (and decode) seconds along the stage × chunk grid, not the
        # clock: hand-offs and host scheduling noise must not leak into restore timings.
        return waited + decoded + pipeline.critical_s()

    def _current_source(self, record: CheckpointRecord):
        """Monitor held: ``(label, resolved)`` — the level a restore starting
        now is served from, and for a checkpoint cached nowhere the durable
        ``(level, store)`` behind that label, for its first promotion."""
        fastest = record.fastest_cached_level()
        if fastest is not None:
            return fastest.name, None
        if record.durable_level is not None:
            resolved = self.durable_read_source(record)
            return resolved[0].name, resolved
        return "IN_FLIGHT", None

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
            self.notify("on_consumed", record)
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
            # Empty unless an incarnation journaled its commits.
            for ckpt_id, locations in sorted(self.journal.entries_for(self.process_id).items()):
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
        checkpoint is only announced to the monitor-held ``landed``
        observers (its reduced image attaches at this level too).
        """
        key = (self.process_id, ckpt_id)
        if not store.contains(key):
            return False  # journal entry whose blob is gone: not trusted
        record = self.catalog.maybe_get(ckpt_id)
        created = record is None
        if created:
            nominal = store.size_of(key)
            image = None
            if meta.get("reduced"):
                image = self.reducer.load_recipe(ckpt_id) if self.reducer is not None else None
                if image is None:
                    log.warning(
                        "p%d: skipping reduced checkpoint %d on %s during "
                        "recovery (no durable chunk recipe)",
                        self.process_id, ckpt_id, store.level.name,
                    )
                    return False
                nominal = int(meta.get("logical_size", image.logical_size))
            record = self._record_for_blob(ckpt_id, nominal, meta)
            if image is not None:
                record.physical_size = image.physical_size
                record.reduction = image
            record.durable_level = store.level
            if not self._owns(store):
                record.durable_store = store  # a replica on another node's SSD
        if self._owns(store):
            # Blobs and chunk references must agree at every durable tier
            # (the validator checks it).  Nothing is re-journaled: the
            # journal is what recovery replayed.
            self.notify("on_landed", record, store)
        return created

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
            drained = self.flusher.drain(timeout=timeout)
        if not drained:
            raise FlushTimeoutError(self.flusher.stall_report(timeout))
        return sw.elapsed

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
                "abandoned_flushes": self.flusher.tallies()["abandoned"],
                "ssd_objects": self.ssd.object_count(),
            }
            for key, fragment in self.stats_fragments:
                stats[key] = fragment()
            return stats

    def close(self) -> None:
        """Stop background threads; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.prefetcher.stop()
        self.flusher.close()
        for leg in self.promote_legs[TierLevel.GPU]:  # the h2d hop's stream, the peer hop's
            if leg.stream is not None:
                leg.stream.close(drain=True)

    def __enter__(self) -> "ScoreEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
