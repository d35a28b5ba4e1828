"""Asynchronous multi-tier prefetching (T_PF of Section 4.3.1).

One daemon thread per engine promotes *hinted* checkpoints toward the GPU
cache in restore order using non-blocking reservations: one
``engine.promote_once`` per step — a store read landing the host extent
(and, when the read is fused, the GPU extent with it), or the host→GPU
hop.  Promotion stops at the *budget*:
prefetched-but-unconsumed bytes may occupy at most
``prefetch_budget_fraction`` of a cache, which prevents prefetches from
starving writes and is the paper's anti-thrashing throttle.

Demand requests (restores that miss the GPU cache) are promoted *inline* by
the restoring thread (see ``ScoreEngine._await_gpu_copy``); the
``prefetch_inflight`` flag keeps the two promoters from racing on the same
checkpoint.  Pipelining across levels emerges naturally as the loop
re-evaluates after every step.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple, TYPE_CHECKING

from repro.errors import AdmissionError, ReproError, TransientTransferError
from repro.log import get_logger
from repro.metrics.recorder import OpEvent, OpKind
from repro.sched.request import TransferClass
from repro.telemetry.causal import CAT_RETRY, CAT_TRANSFER, NULL_OP
from repro.tiers.base import TierLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import CheckpointRecord
    from repro.core.engine import ScoreEngine

log = get_logger(__name__)

#: (record, source level, destination level, restore-queue distance,
#:  whether the queue entry is an explicit application hint — predicted
#:  overlay entries are always speculative)
Task = Tuple["CheckpointRecord", TierLevel, TierLevel, int, bool]


class Prefetcher:
    """The hint-driven prefetch thread of one engine."""

    def __init__(self, engine: "ScoreEngine", lookahead: int = 64) -> None:
        self.engine = engine
        self.lookahead = lookahead
        self.promotions = 0
        self.telemetry = engine.telemetry
        self._track = f"p{engine.process_id}-prefetch"
        #: per-checkpoint chain ops (``f<pid>:<ckpt>``): one causal identity
        #: spans every promotion step of a hint (SSD→host, host→GPU).
        #: Touched only by the prefetch thread.
        self._ops = {}
        registry = self.telemetry.registry
        self._m_promotions = registry.counter("prefetch.promotions")
        self._m_bytes = registry.counter("prefetch.bytes")
        self._m_retries = registry.counter("prefetch.retries")
        self._m_sheds = registry.counter("prefetch.sheds")
        self._running = True
        self._thread = threading.Thread(
            target=self._run, name=f"prefetcher-p{engine.process_id}", daemon=True
        )
        self._thread.start()

    def _chain_op(self, ckpt_id: int):
        """The checkpoint's prefetch-chain op (cached across steps)."""
        if not self.engine.ops.enabled:
            return NULL_OP
        op = self._ops.get(ckpt_id)
        if op is None:
            op = self.engine.ops.prefetch(ckpt_id, self._track)
            self._ops[ckpt_id] = op
        return op

    def stop(self) -> None:
        with self.engine.monitor:
            self._running = False
            self.engine.monitor.notify_all()
        self._thread.join()

    # -- main loop -----------------------------------------------------------
    def _run(self) -> None:
        engine = self.engine
        while True:
            task: Optional[Task] = None
            with engine.monitor:
                while self._running:
                    task = self._pick_task()
                    if task is not None:
                        break
                    # Hints, transitions, consumption and evictions all
                    # notify the monitor; only a ramping lazily-pinned host
                    # arena changes silently and warrants a short poll.
                    engine.monitor.wait(
                        virtual_timeout=0.05 if engine.host_cache.ramping() else 1.0
                    )
                if not self._running:
                    return
                task[0].prefetch_inflight = True
            record, src, dst, distance, explicit = task
            op = self._chain_op(record.ckpt_id)
            op.fill("hint-wait")
            request = self._classify(distance, op=op, explicit=explicit)
            started = engine.clock.now()
            seconds: Optional[float] = None
            shed = False
            causal = {}
            if op.op_id is not None:
                causal = {
                    "op_id": op.op_id,
                    "category": CAT_TRANSFER,
                    "tier": "pcie" if src == TierLevel.HOST else src.name.lower(),
                }
            span = self.telemetry.bus.span(
                "prefetch",
                self._track,
                ckpt=record.ckpt_id,
                src=src.name,
                dst=dst.name,
                bytes=record.nominal_size,
                **causal,
            )
            with span:
                try:
                    seconds = engine.promote_once(
                        record, src, dst, blocking=False, allow_pinned=False,
                        request=request, op=op,
                        # Predicted overlay entries land as revocable
                        # stagings; explicit hints keep the consume pin.
                        speculative=not explicit,
                    )
                except AdmissionError:
                    # The link's speculative queue is full — back off below
                    # instead of hammering admission in a tight loop.
                    span.add(shed=True)
                    self._m_sheds.inc()
                    shed = True
                except TransientTransferError as exc:
                    # Injected transient fault (link fault, tier outage):
                    # back off on the virtual clock so a dark tier doesn't
                    # busy-spin the prefetch loop, then re-evaluate.
                    span.add(retried=True)
                    self._m_retries.inc()
                    delay = 0.05
                    if engine.retry_policy is not None:
                        delay = engine.retry_policy.backoff(
                            0, "prefetch", record.ckpt_id
                        )
                    with op.stage("backoff", CAT_RETRY):
                        engine.clock.sleep(delay)
                    log.debug(
                        "p%d: prefetch of checkpoint %d (%s->%s) hit a "
                        "transient fault: %s",
                        engine.process_id, record.ckpt_id, src.name, dst.name, exc,
                    )
                except ReproError as exc:
                    # Raced with a concurrent state change (e.g. the extent
                    # appeared on the destination meanwhile); re-evaluate.
                    span.add(retried=True)
                    self._m_retries.inc()
                    log.debug(
                        "p%d: prefetch of checkpoint %d (%s->%s) will retry: %s",
                        engine.process_id,
                        record.ckpt_id,
                        src.name,
                        dst.name,
                        exc,
                    )
                finally:
                    with engine.monitor:
                        record.prefetch_inflight = False
                        engine.monitor.notify_all()
            if shed:
                with op.stage("shed-backoff", CAT_RETRY):
                    engine.clock.sleep(engine.config.sched.hint_spacing_s)
            if seconds is not None:
                gpu_inst = record.peek(TierLevel.GPU)
                if dst == TierLevel.GPU or (
                    gpu_inst is not None and gpu_inst.has_copy
                ):
                    # Direct GPU hop, or a fused promotion that landed the
                    # GPU extent along with the host one.
                    self._ops.pop(record.ckpt_id, None)  # chain complete
                if engine.predict is not None and not explicit:
                    # Arm the validator: this staging is speculation whose
                    # fate (consume vs. abandon) scores the predictor.
                    with engine.monitor:
                        engine.predict.on_speculative_staged(
                            record, engine.clock.now()
                        )
                self.promotions += 1
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
        far ones SPECULATIVE_PREFETCH (sheddable + preemptible); predicted
        overlay entries (``explicit=False``) are always speculative, so
        bad speculation sheds first at admission.  The deadline paces both
        so near-future restores win ties.  None when scheduling is off.
        """
        engine = self.engine
        scfg = engine.config.sched
        tclass = (
            TransferClass.HINTED_PREFETCH
            if explicit and distance <= scfg.hint_near_distance
            else TransferClass.SPECULATIVE_PREFETCH
        )
        deadline = engine.clock.now() + distance * scfg.hint_spacing_s
        return engine._sched_request(tclass, deadline=deadline, op=op)

    # -- task selection (monitor held) ------------------------------------------
    def _pick_task(self) -> Optional[Task]:
        engine = self.engine
        if not engine.queue.started:
            return None
        if engine.demand_active:
            return None  # demand promotions own the freed slots right now
        gpu_budget = int(engine.prefetch_budget_fraction * engine.gpu_cache.table.capacity)
        host_budget = int(engine.prefetch_budget_fraction * engine.host_cache.table.capacity)
        for distance, ckpt_id in enumerate(engine.queue.upcoming(self.lookahead)):
            explicit = engine.queue.is_explicit(ckpt_id)
            record = engine.catalog.maybe_get(ckpt_id)
            if record is None or record.consumed or record.prefetch_inflight:
                continue
            gpu_inst = record.peek(TierLevel.GPU)
            if gpu_inst is not None and gpu_inst.has_copy:
                continue  # already staged
            step = engine.promotion_step(record)
            if step is None:
                continue  # still being written somewhere; revisit later
            src, dst = step
            if dst == TierLevel.GPU:
                # Budgets count what the destination actually stores —
                # physical bytes at or below the reduction site.
                if (
                    engine.gpu_cache.pinned_bytes() + record.stored_size(TierLevel.GPU)
                    > gpu_budget
                ):
                    return None  # budget full: wait for consumption
            else:
                if (
                    engine.host_cache.pinned_bytes() + record.stored_size(TierLevel.HOST)
                    > host_budget
                ):
                    return None
                if (
                    engine.fuses_host_promotion(record, src)
                    and engine.gpu_cache.pinned_bytes()
                    + record.stored_size(TierLevel.GPU)
                    > gpu_budget
                ):
                    # A fused promotion claims a GPU extent along with the
                    # host one; hold off until consumption frees GPU budget
                    # rather than overshoot it.
                    return None
            return (record, src, dst, distance, explicit)
        return None
