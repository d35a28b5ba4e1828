"""Asynchronous multi-tier prefetching (T_PF of Section 4.3.1).

**One worker per hop.**  Like the flusher's one stream per stage, the
prefetcher runs one daemon thread per hop of the read direction, all on
the same loop (:meth:`Prefetcher._run`) parametrised by the hop's
destination tier, so a 23-46 ms storage read and a 5-10 ms PCIe crossing
overlap instead of queueing behind each other on one thread:

* the *GPU hop* (host→GPU; with GPUDirect store→GPU, and then it is the
  only worker) walks the next ``lookahead`` hints in restore order and
  stops at the first one the GPU *budget* has no room for.  The budget
  goes round in hint order: a nearer hint that is still on its way up
  (being staged, or waiting for the staging worker) keeps its share, so
  the GPU hop runs ahead of it only into room it will not need;
* the *staging hop* (store→host) takes the nearest hinted checkpoint that
  is durable and cached nowhere, however far from the head it sits.  Its
  **horizon** comes from the cache, not from an option: the hint queue is
  walked lazily and the walk ends once the unconsumed hints nearer than
  the candidate already add up to more than the host budget — nothing
  beyond that point could stay cached until its restore.

Each worker skips records whose next step (``engine.promotion_step``) is
the other worker's.  One step is one ``engine.promote_once``: a store read
landing the host extent (and the GPU extent with it when the read is fused
and the GPU budget has room — it lands the host alone when not, and never
waits for GPU budget), or the host→GPU hop — inside :meth:`Prefetcher.step`,
the bracket a demand restore runs its promotions in too: back off after a
transient fault holding the record, then release it.  A worker whose step
raises anything else counts it (``engine.swallowed``), backs off and picks
again.

The *budget* is the paper's anti-thrashing throttle: prefetched-but-
unconsumed bytes may occupy at most ``PREFETCH_BUDGET_FRACTION`` of a
cache, so prefetches cannot starve writes.  A worker checks it when it
picks, and the claim enforces it again inside the reservation's monitor
section, where two workers claiming GPU extents cannot both slip under it.

**The nearer-hint barrier.**  Algorithm 1 breaks ties toward the window
with the *largest* summed prefetch distance, which is right for a write
but would let a staging reservation evict hint 190 to bring in hint 191,
only to read 190 again.  A staging claim therefore treats every
unconsumed checkpoint hinted nearer than the one it brings in as a window
barrier (``CacheBuffer.reserve(keep_nearer=True)``); with the host cache
full of nearer hints there is no window and the claim is refused like any
non-blocking miss — the horizon normally ends the walk before it is tried.
GPU-hop claims are unchanged.

**Demand episodes pause both workers.**  A restore that misses the GPU
cache promotes *inline* on the restoring thread
(``ScoreEngine._await_gpu_copy``) and raises ``demand_active`` for the
whole episode: neither worker picks a new task, so a freed slot or a
link's next turn goes to the restore the application is blocked on, not to
speculation.  ``record.prefetch_inflight``, set under the monitor by a
pick and cleared by the step, is the one per-record exclusion between the
two workers and a demand restore.
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.core.lifecycle import CkptState
from repro.errors import ReproError, TransientTransferError
from repro.log import get_logger
from repro.metrics.recorder import OpEvent, OpKind
from repro.sched.request import TransferClass
from repro.telemetry.causal import CAT_RETRY, NULL_OP
from repro.tiers.base import TierLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import CheckpointRecord
    from repro.core.engine import ScoreEngine

log = get_logger(__name__)

#: hints at restore-queue distance ≤ this prefetch as HINTED_PREFETCH;
#: farther ones are SPECULATIVE_PREFETCH (preemptible).
HINT_NEAR_DISTANCE = 4
#: nominal seconds per hint-queue position: a prefetch's deadline is
#: ``now + distance * HINT_SPACING_S`` (EDF paces far prefetches behind
#: near ones).
HINT_SPACING_S = 0.010
#: the share of a cache that prefetched-but-unconsumed bytes may occupy.
PREFETCH_BUDGET_FRACTION = 0.9

#: (record, its step ``(src, dst, store)`` as ``engine.promotion_step``
#:  returns it, restore-queue distance, whether the queue entry is an
#:  explicit application hint — predicted overlay entries are always
#:  speculative)
Task = Tuple["CheckpointRecord", Tuple[TierLevel, TierLevel, object], int, bool]

#: hints from the restore head the GPU hop looks at (the staging hop's
#: horizon comes from the cache instead, see the module docstring).
LOOKAHEAD = 64

#: destination tier of a hop -> the name of its promotion spans, as the
#: flusher names a stage's spans after the stage; the worker's track is
#: ``p<pid>-<name>``.
HOP_SPANS = {TierLevel.GPU: "prefetch", TierLevel.HOST: "prefetch-stage"}


class Prefetcher:
    """The hint-driven prefetch workers of one engine, one per hop."""

    def __init__(self, engine: "ScoreEngine") -> None:
        self.engine = engine
        self.lookahead = LOOKAHEAD
        #: completed promotions, both workers (updated under the monitor).
        self.promotions = 0
        self.telemetry = engine.telemetry
        #: destination tier of a hop -> the trace track its promotions are
        #: drawn on, one per worker so their spans never overlap.
        self.tracks = {
            hop: f"p{engine.process_id}-{name}" for hop, name in HOP_SPANS.items()
        }
        #: GPUDirect reads land on the GPU: no staging hop, one worker.
        self.hops = (
            (TierLevel.GPU,) if engine.gpudirect else (TierLevel.GPU, TierLevel.HOST)
        )
        #: per-checkpoint chain ops (``f<pid>:<ckpt>``): one causal identity
        #: spans every promotion step of a hint (SSD→host, host→GPU),
        #: whichever worker takes it.  Guarded by the monitor; an entry
        #: lives until the chain completes or the checkpoint is consumed.
        self._ops = {}
        registry = self.telemetry.registry
        self._m_promotions = registry.counter("prefetch.promotions")
        self._m_bytes = registry.counter("prefetch.bytes")
        self._m_retries = registry.counter("prefetch.retries")
        #: non-blocking claims refused (the worker then parks until a change)
        self._m_refused = registry.counter("prefetch.refused")
        self._running = True
        #: hop -> ``(ckpt id, monitor.changes)`` of the claim its worker was
        #: refused with nothing changed meanwhile (monitor held).
        self._refused = {hop: None for hop in self.hops}
        self._workers = [
            threading.Thread(
                target=engine.clock.runner(self._run),
                args=(hop,),
                name=f"prefetcher-p{engine.process_id}-{hop.name.lower()}",
                daemon=True,
            )
            for hop in self.hops
        ]
        for worker in self._workers:
            worker.start()

    def _chain_op(self, ckpt_id: int, track: str):
        """Monitor held: the checkpoint's prefetch-chain op (cached across
        steps), emitting on the track of the worker now holding it."""
        if not self.engine.ops.enabled:
            return NULL_OP
        op = self._ops.get(ckpt_id)
        if op is None:
            op = self._ops[ckpt_id] = self.engine.ops.prefetch(ckpt_id, track)
        op.track = track
        return op

    def open_chains(self) -> List[int]:
        """Checkpoints with a cached chain op: staged part of the way and
        neither on the GPU nor consumed yet (validator cross-check)."""
        with self.engine.monitor:
            return sorted(self._ops)

    def forget(self, ckpt_id: int) -> None:
        """Monitor held: the chain of ``ckpt_id`` is over — its GPU extent
        landed, or the checkpoint was consumed (a chain whose last hop a
        demand restore took never completes) — so drop its op."""
        self._ops.pop(ckpt_id, None)

    def idle(self) -> bool:
        """No worker has a task it may pick and no record is mid-promotion:
        until a hint, a restore or a flush changes something, the
        prefetcher will do nothing more."""
        engine = self.engine
        with engine.monitor:
            for hop in self.hops:
                task = self._pick_task(hop)
                if task is not None and not self._was_refused(hop, task):
                    return False
            return not any(record.prefetch_inflight for record in engine.catalog.all_records())

    def _was_refused(self, hop: TierLevel, task: Task) -> bool:
        """Monitor held: ``task`` is the claim the worker of ``hop`` was
        refused, and nothing changed since — it would be refused again."""
        return self._refused[hop] == (task[0].ckpt_id, self.engine.monitor.changes)

    def stop(self) -> None:
        with self.engine.monitor:
            self._running = False
            self.engine.monitor.notify_all()
            self.engine.monitor.hints.notify_all()
        for worker in self._workers:
            self.engine.clock.join(worker)

    # -- the promotion step -----------------------------------------------------
    def step(self, record, step, op, request, backoff: str, **claim):
        """One ``promote_once`` along ``step`` (``promotion_step``'s ``(src,
        dst, store)``) under the exclusion the caller's pick set, on the
        reservation terms ``claim``.  Returns the accounted seconds (``None``
        unless landed) and the outcome: ``"landed"``, ``"refused"`` or
        ``"retry"``.  A :class:`ReproError` is an outcome; anything else
        propagates."""
        engine = self.engine
        src, dst, store = step
        try:
            seconds = engine.promote_once(
                record, src, dst, request=request, op=op, store=store, **claim
            )
            return seconds, "refused" if seconds is None else "landed"
        except ReproError as exc:
            # A race (the source moved, the extent appeared meanwhile) or an
            # injected transient fault: back off from the latter holding the
            # record, so a dark tier doesn't busy-spin the loop.
            if isinstance(exc, TransientTransferError):
                self._back_off(op, backoff, record.ckpt_id)
            log.debug("p%d: checkpoint %d will retry: %s", engine.process_id, record.ckpt_id, exc)
            return None, "retry"
        finally:
            with engine.monitor:
                record.prefetch_inflight = False
                engine.monitor.notify_all()

    def _back_off(self, op, label: str, ckpt_id: int) -> None:
        """Sleep a loop's back-off after a fault on the virtual clock."""
        with op.stage("backoff", CAT_RETRY):
            self.engine.clock.sleep(self.engine.retry_policy.backoff(0, label, ckpt_id))

    # -- main loop -----------------------------------------------------------
    def _run(self, hop: TierLevel) -> None:
        """The loop of the worker that lands extents on ``hop``."""
        engine = self.engine
        monitor, queue = engine.monitor, engine.queue
        span_name, track = HOP_SPANS[hop], self.tracks[hop]
        cache = engine.host_cache if hop == TierLevel.HOST else engine.gpu_cache
        while True:
            task: Optional[Task] = None
            with monitor:
                while self._running:
                    task = self._pick_task(hop)
                    refused = task is not None and self._was_refused(hop, task)
                    if task is not None and not refused:
                        break
                    if not queue.started or len(queue) == 0:
                        # Nothing to walk, whatever else changes: park on the
                        # hint condition, which only a start, an enqueue, an
                        # overlay refresh or :meth:`stop` notifies.
                        monitor.hints.wait()
                        continue
                    # With hints to walk, transitions, consumption, releases
                    # and evictions all notify the monitor: park until one
                    # does.  Only a lazily-pinned arena grows silently: a
                    # refused claim also ends its park when the arena has
                    # pinned the room.
                    ramp = cache.ramp_wait(task[0], CkptState.READ_IN_PROGRESS) if refused else None
                    if not monitor.wait(ramp):
                        self._refused[hop] = None
                self._refused[hop] = None
                if not self._running:
                    return
                seen = monitor.others_changes()
                task[0].prefetch_inflight = True
                op = self._chain_op(task[0].ckpt_id, track)
            record, step, distance, explicit = task
            src, dst, _store = step
            op.fill("hint-wait")
            request = self._classify(distance, op=op, explicit=explicit)
            started = engine.clock.now()
            op_id, category, causal = engine.promote_legs[dst][0].causal(
                op, "pcie" if src == TierLevel.HOST else src.name.lower()
            )
            with self.telemetry.bus.span(
                span_name,
                track,
                op_id=op_id,
                category=category,
                ckpt=record.ckpt_id,
                src=src.name,
                dst=dst.name,
                bytes=record.nominal_size,
                **causal,
            ) as span:
                try:
                    seconds, outcome = self.step(
                        record, step, op, request, "prefetch",
                        blocking=False, allow_pinned=False,
                        # Predicted overlay entries land as revocable
                        # stagings; explicit hints keep the consume pin.
                        speculative=not explicit,
                        budget_fraction=PREFETCH_BUDGET_FRACTION,
                        # Staging ahead must not push out what is restored
                        # sooner; GPU-hop claims follow Algorithm 1 as is.
                        keep_nearer=hop == TierLevel.HOST,
                    )
                except Exception as exc:  # noqa: BLE001 - counted, traced, backed off
                    # A worker outlives a broken step: the hint stays queued.
                    engine.swallowed(
                        "prefetch-step-error", track,
                        ckpt=record.ckpt_id, hop=hop.name, error=repr(exc),
                    )
                    self._back_off(op, "prefetch", record.ckpt_id)
                    continue
                if outcome == "retry":
                    span.add(retried=True)
                    self._m_retries.inc()
                elif outcome == "refused":
                    self._m_refused.inc()
                    with monitor:
                        # Refused with nothing changed by another thread
                        # since the pick: the same claim would be refused
                        # (an ``idle()`` waiter may now find nothing to do).
                        if monitor.others_changes() == seen:
                            self._refused[hop] = (record.ckpt_id, monitor.changes)
                            monitor.wake_all()
            if seconds is not None:
                self._book_landing(record, step, explicit, started, seconds)

    def _book_landing(self, record, step, explicit: bool, started: float, seconds: float) -> None:
        """A worker's step landed: count it, close the chain once the GPU
        extent is in, announce a speculative staging, record the op."""
        engine = self.engine
        src, dst, _store = step
        with engine.monitor:
            self.promotions += 1
            gpu_inst = record.peek(TierLevel.GPU)
            if dst == TierLevel.GPU or (gpu_inst is not None and gpu_inst.has_copy):
                # Direct GPU hop, or a fused promotion that landed the GPU
                # extent along with the host one.
                self.forget(record.ckpt_id)  # chain complete
            if not explicit:
                engine.notify("on_speculative_staged", record)
        self._m_promotions.inc()
        self._m_bytes.inc(record.nominal_size)
        engine.recorder.record(
            OpEvent(
                kind=OpKind.PREFETCH,
                ckpt_id=record.ckpt_id,
                started_at=started,
                blocked=seconds,
                nominal_bytes=record.nominal_size,
                source_level=src.name,
            )
        )

    def _classify(self, distance: int, op=NULL_OP, explicit: bool = True):
        """QoS tag for a prefetch at ``distance`` hints from the restore
        head: near *explicit* hints are HINTED_PREFETCH (never preempted),
        far ones SPECULATIVE_PREFETCH (preemptible, served last); predicted
        overlay entries (``explicit=False``) are always speculative, so
        bad speculation yields first.  The deadline paces both so
        near-future restores win ties.  None when scheduling is off.
        """
        engine = self.engine
        tclass = (
            TransferClass.HINTED_PREFETCH
            if explicit and distance <= HINT_NEAR_DISTANCE
            else TransferClass.SPECULATIVE_PREFETCH
        )
        deadline = engine.clock.now() + distance * HINT_SPACING_S
        return engine.sched.request(tclass, engine.process_id, deadline=deadline, op_id=op.op_id)

    # -- task selection (monitor held) ------------------------------------------
    def _pick_task(self, hop: TierLevel) -> Optional[Task]:
        """The next promotion landing on ``hop``, or ``None`` to wait."""
        engine = self.engine
        queue = engine.queue
        if not queue.started:
            return None
        if engine.demand_active:
            return None  # demand promotions own the freed slots right now
        staging = hop == TierLevel.HOST
        cache = engine.host_cache if staging else engine.gpu_cache
        hints = queue.iter_upcoming()
        if not staging:
            hints = islice(hints, self.lookahead)
        horizon = int(PREFETCH_BUDGET_FRACTION * cache.table.capacity)
        #: bytes of the unconsumed hints nearer than the one looked at —
        #: staging: all of them (the horizon); GPU hop: those with no GPU
        #: extent yet, whose turn at the GPU budget comes first.
        nearer = 0
        maybe_get = engine.catalog.maybe_get
        for distance, ckpt_id in enumerate(hints):
            record = maybe_get(ckpt_id)
            if record is None or record.consumed:
                continue
            if staging and nearer > horizon:
                return None  # nothing this far could stay cached
            # Budgets count what the destination actually stores.
            size = record.physical_size
            if staging and record.instances:
                # An extent on a cache tier, landed or in flight: nothing to
                # stage.  (What promotion_step would say, said sooner — the
                # walk passes hundreds of cached hints on the way out.)
                nearer += size
                continue
            step = None if record.prefetch_inflight else engine.promotion_step(record)
            if step is not None and step[1] == hop:
                # The budget goes round in hint order: the GPU hop runs
                # ahead of a nearer hint still on its way up (staged by the
                # other worker, or in flight) only into room that hint will
                # not need.  A fused staging read needs no GPU budget here:
                # its GPU claim is refused when there is none and the host
                # extent lands alone.
                claimed = size if staging else nearer + size
                if not cache.within_budget(claimed, PREFETCH_BUDGET_FRACTION):
                    return None  # budget full: wait for consumption
                return (record, step, distance, queue.is_explicit(ckpt_id))
            # Already staged, mid-transfer, still being written somewhere,
            # or the other worker's step: revisit later.
            if staging or record.peek(TierLevel.GPU) is None:
                nearer += size
        return None
