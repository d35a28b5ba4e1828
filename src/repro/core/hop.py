"""One hop: how one copy of one checkpoint moves from one endpoint to the next.

Every transfer of the runtime — a flush stage, a replica or repair copy, a
promotion toward the GPU — is the same four steps between two kinds of
endpoint, a cache extent and a blob on a durable store, behind handles with
one set of method names (``tiers/base.py``, ``core/cache.py``):

1. **claim** every sink (``open_put``: a cache reserves the extent, a store
   draws its fault gates) and pin the source when it is a cache extent;
2. per chunk, **take** the input (published by the upstream stage of the
   checkpoint's ``ChunkPipeline``, read off the source handle, or nothing) and
   **charge** every endpoint's links as the pipeline's one chunk step, under
   the leg's retry/breaker policy, QoS tag and causal kwargs.  The hop keeps
   two chunks on its links, one crossing and the next queued: a chunk's
   command is submitted once the chunk ahead was issued and its input is in
   hand, so on a busy stage its latency runs behind the chunk ahead
   (``queued=``, ``ChunkPipeline.queued_s``);
3. **commit** the sinks in order (payload bytes move whole-object, here);
4. **land**: ``engine.landed`` for each.

:class:`Leg` is one row of a table of hops (the flusher's stage table, the
read path's), :class:`Hop` the bracket around one execution.  What differs
between hops — preambles, crash points, re-verification, where a rerouted put
goes next — stays with the caller, between these steps.  Not hops (they
claim, charge and land nothing): the service's ``svc-restore-*`` threads, the
write aggregator's leader/follower wait, the repairer's round pacing.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional

from repro.core.streaming import chunk_sizes_for
from repro.sched.request import TransferClass
from repro.telemetry.causal import CAT_TRANSFER


class Leg(NamedTuple):
    """The standing description of one hop of one engine.  A flush leg (a row
    with a ``body``) is ``CASCADE_FLUSH``: a charge rides the record's op and
    is tagged for QoS with ``record.cancel_flush`` as its cancellation
    channel, so abandonment (condition (5)) interrupts a leg mid-transfer or
    still queued in an arbiter; its ``policy`` (``Flusher.retrying``)
    retries injected transient faults within the class's budget.  A promotion leg charges once, under the caller's tag and
    op: its callers re-resolve the source."""

    engine: Any
    stage: str  # the pipeline stage (and span) name
    track: str
    tier: Optional[str]  # the causal ``tier`` label of its charges
    # The stream of the worker that runs it (none: the calling thread).  Flush
    # cascade only: the stage body, the cache level it flushes out of
    # (``flush_pending`` until it lands or fails), the retry/breaker policy.
    stream: Any = None
    body: Optional[Callable] = None
    source: Any = None
    policy: Optional[Callable] = None

    def causal(self, op, tier: Optional[str] = None) -> tuple:
        """``(op_id, category, args)`` tying a charge's spans to its op;
        ``(None, None, {})`` with causal tracing off, so disabled runs emit
        byte-identical spans."""
        if op.op_id is None:
            return None, None, {}
        return op.op_id, CAT_TRANSFER, {"tier": tier or self.tier}

    def request(self, record, tag=None):
        """The QoS tag of one charge: a flush leg's own, a promotion leg's
        caller's ``tag`` (``None`` when scheduling is off)."""
        if self.body is None:
            return tag
        return self.engine.sched.request(
            TransferClass.CASCADE_FLUSH, self.engine.process_id, cancel_event=record.cancel_flush
        )

    def attempt(self, record, fn, breaker=None):
        """Run one claim or charge under the leg's retry/breaker policy; a
        promotion leg has none, so it is the plain call."""
        return fn() if self.policy is None else self.policy(self, record, fn, breaker)


class Hop:
    """One execution of a :class:`Leg` for one checkpoint.  A context manager:
    however it is left, every claim not landed is aborted, the source unpinned
    and a stage that did not finish failed, so that its neighbours unblock."""

    __slots__ = ("leg", "record", "pipeline", "op", "tag", "cancelled", "claims", "pinned", "done")

    def __init__(self, leg: Leg, record, pipeline=None, op=None, tag=None) -> None:
        flush = leg.body is not None
        self.leg, self.record, self.pipeline, self.tag = leg, record, pipeline, tag
        self.op = record.op if flush else op
        self.cancelled = record.cancel_flush if flush else None
        self.claims = []  # [(where, put handle)], in claim order
        self.pinned = None
        self.done = False

    def claim(self, where, *args, breaker=None, **terms):
        """``where.open_put``: a cache reserves the extent (``None``: a
        non-blocking claim was refused), a store draws the tier gate (a dark
        tier raises here, at chunk 0) and the at-rest corruption of this put
        attempt; a retry re-opens, re-drawing both."""
        handle = self.leg.attempt(self.record, lambda: where.open_put(*args, **terms), breaker)
        if handle is not None:
            self.claims.append((where, handle))
        return handle

    def stream(self, total: int, read=None, take=None, tier=None, breaker=None, stage=None):
        """The chunk loop: ``total`` bytes in the pipeline's chunk plan.
        Chunk *i* is eligible once the upstream stage published it and
        ``take(i, nbytes)``, the leg's own input step, agrees; it is charged
        on ``read(nbytes, cancelled=, request=, queued=)`` — a source
        handle's read — and every claimed sink as one chunk step, timed as
        the op stage ``stage`` (``(name, category, args)``) when one is
        given.  ``queued`` is how long the chunk's command had been queued
        behind the chunk ahead (queue depth two); a retried chunk is a fresh
        submission.  Returns the accounted seconds, ``None`` when the input
        stopped coming.  A discard stops the loop, the read as the writes,
        through the links' ``cancelled=``."""
        leg, record, pipeline, op = self.leg, self.record, self.pipeline, self.op
        bus = leg.engine.telemetry.bus
        causal = leg.causal(op, tier)
        seconds = 0.0
        for i, nbytes in enumerate(chunk_sizes_for(total, pipeline.chunks)):
            if not pipeline.await_upstream(leg.stage, i):
                return None
            if take is not None and not take(i, nbytes):
                return None
            queued = pipeline.queued_s(leg.stage, i) if i else 0.0

            def charge() -> float:
                nonlocal queued
                ahead, queued = queued, 0.0  # a retry is a fresh submission
                tag = leg.request(record, self.tag)
                spent = 0.0 if read is None else read(
                    nbytes, cancelled=self.cancelled, request=tag, queued=ahead
                )
                for _where, handle in self.claims:
                    spent += handle.write(
                        nbytes, cancelled=self.cancelled, request=tag, queued=ahead
                    )
                return spent

            entered = None if stage is None else op.enter(leg.track)
            try:
                seconds += pipeline.charge_chunk(
                    leg.stage, i, nbytes, lambda: leg.attempt(record, charge, breaker),
                    bus, leg.track, causal,
                )
            finally:
                if entered is not None:
                    name, category, args = stage
                    op.leave(name, category, leg.track, entered, **args)
        return seconds

    def commit(self, payload, **how) -> None:
        """In claim order: a cache extent takes the payload, a store blob
        becomes visible (``meta=``, ``copy=``)."""
        for _where, handle in self.claims:
            handle.commit(payload, **how)

    def land(self, **landing) -> None:
        """Landing epilogue of every sink; the copies are the engine's now."""
        claims, self.claims = self.claims, []
        for where, _handle in claims:
            self.leg.engine.landed(self.record, where, **landing)

    def abort(self) -> None:
        """Every claim not landed (a rerouted put starts over on the next sink)."""
        claims, self.claims = self.claims, []
        for _where, handle in claims:
            handle.abort()

    def finish(self) -> bool:
        """The stage's epilogue has run."""
        self.pipeline.finish(self.leg.stage)
        self.done = True
        return True

    def __enter__(self) -> "Hop":
        return self

    def __exit__(self, *exc_info) -> None:
        self.abort()
        if self.pinned is not None:
            self.pinned.abort()
        if self.done:
            return
        if self.pipeline is not None:
            self.pipeline.fail(self.leg.stage)
        if self.leg.source is not None:
            # The source copy was pinned for this hop; a hop that did not
            # land must unpin it or the extent is unevictable forever.
            monitor = self.leg.engine.monitor
            with monitor:
                source = self.record.peek(self.leg.source)
                if source is not None and source.flush_pending:
                    source.flush_pending = False
                    monitor.notify_all()


def copy_whole(
    source, destination, key, *, hop=None, node_id: int = 0, cancelled=None, request=None, meta=None
) -> int:
    """The whole-object store→store hop (replication, SSD backfill, cluster
    repair); returns the object's nominal size.  Two charges: the source
    read, with the interconnect ``hop`` between stores on different nodes
    crossed alongside, and the destination put — claim, charge and commit in
    one, owning the bytes read; ``cancelled`` cuts either.  ``meta``
    defaults to the source's; ``node_id`` names whose PFS links carry a
    PFS-side leg.  A failure raises (``ReproError``) with nothing committed;
    retry policy and landing epilogue are the caller's."""
    stored = source.size_of(key)
    if meta is None:
        meta = source.meta(key)
    payload, _ = source.get(key, node_id=node_id, cancelled=cancelled, request=request, via=hop)
    destination.put(
        key, payload, stored,
        node_id=node_id, cancelled=cancelled, request=request, meta=meta, copy=False,
    )
    return stored
