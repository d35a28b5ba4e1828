"""Per-checkpoint chunk pipeline: what the hops of one transfer coordinate on.

One :class:`ChunkPipeline` coordinates the stages of a single checkpoint's
transfer — each stage a *hop* (:mod:`repro.core.hop`: claim, charge chunk by
chunk, commit, land): ``d2h`` → ``h2f`` → ``f2r`` → ``f2p`` on the flush path
(every flush walks one, a whole-object flush being the one-chunk plan), or
``read`` → ``h2d`` on the promote path (off a peer's SSD, ``read`` crosses the
holder's drive and the fabric at once).  Every stage moves the same chunks
of the one stored form; a consumer stage charges chunk ``i`` on its link only
once the upstream stage has published chunk ``i``.

A producer never waits for its consumer where its output already has a
home — the extent or blob its hop claimed holds the whole object, so the
stage runs at its own link's pace.  The one edge whose bytes live in a
bounded bounce buffer is the SSD read-back ``f2r`` feeding the PFS writer
``f2p``; there the producer calls :meth:`throttle` and parks once it runs
``ring`` chunks ahead.

The pipeline is pure coordination: payload bytes are still written whole
at each stage's commit (the simulator charges transfer *time* per chunk,
it does not fragment the numpy payloads), so a torn stream leaves nothing
behind on a durable tier — chunk streaming cannot leave a blob recovery
would adopt half-written.

Stall time spent in :meth:`await_upstream` / :meth:`throttle` is tallied
per stage, and an interval integrator tracks how long ≥2 stages were
simultaneously mid-chunk — the ``flush.stream.overlap_ratio`` headline
metric (1.0 = perfectly pipelined, → 0 = store-and-forward).  Those are
clock-side occupancy figures; what a transfer *cost* is accounted: each chunk
step's accounted seconds are kept and :meth:`critical_s` is the longest
dependency chain through the stage × chunk grid, free of host hand-off time.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.clock import Event, VirtualClock


def plan_chunks(nbytes: int, chunk_bytes: int) -> List[int]:
    """The chunk plan of one transfer: ``nbytes`` split into near-equal
    chunks of at most ``chunk_bytes``.  A transfer under two chunks plans
    as one (per-chunk latency would dominate): the whole-object case."""
    count = (nbytes + chunk_bytes - 1) // chunk_bytes
    return chunk_sizes_for(nbytes, count) if count >= 2 else [nbytes]


def chunk_sizes_for(nbytes: int, count: int) -> List[int]:
    """``nbytes`` split into exactly ``count`` near-equal chunks (stages of
    one pipeline share a chunk *count*, so completion events align)."""
    base, rem = divmod(nbytes, count)
    return [base + (1 if i < rem else 0) for i in range(count)]


class ChunkPipeline:
    """Completion-event fabric between the streamed stages of one checkpoint.

    Stages are registered up front with :meth:`add_stage` (order matters:
    each stage's upstream is the previously added one).  A stage that
    aborts calls :meth:`fail`, which releases every waiter; a stage that
    is skipped entirely (e.g. the PFS hop after a reroute already landed
    the blob there) calls :meth:`skip` so downstream consumers return
    quietly.
    """

    def __init__(
        self,
        ckpt_id: int,
        chunks: int,
        clock: VirtualClock,
        cancelled: Optional[Event] = None,
        crashed: Optional[Event] = None,
    ) -> None:
        self.ckpt_id = ckpt_id
        self.chunks = chunks
        self.clock = clock
        self.cancelled = cancelled
        self.crashed = crashed
        self._cond = clock.condition()
        self._done: Dict[str, int] = {}
        #: per stage, the accounted seconds of each chunk step, in chunk order.
        self._spent: Dict[str, List[float]] = {}
        self._finished: Dict[str, bool] = {}
        self._failed: Dict[str, bool] = {}
        self._skipped: Dict[str, bool] = {}
        self._order: List[str] = []
        #: inter-stage payload handoff: the producer stage parks the
        #: payload here so consumers need not wait for the whole upstream
        #: copy to land before starting work.
        self.payload = None
        #: input chunks the durable hop already holds (published upstream,
        #: or DMA'd off the GPU): a reroute to another store replays them
        #: instead of taking them again, resuming at the failed chunk.
        self.in_hand = 0
        #: the tier level the durable hop landed the blob on (SSD, or PFS
        #: when rerouted), set by that stage before it finishes.
        self.landed = None
        #: per-stage nominal seconds spent stalled in await/throttle.
        self.stall_s: Dict[str, float] = {}
        self._workers = 0
        # -- overlap integrator (virtual time, ≥2 stages mid-chunk) --
        self._active = 0
        self._active_since: Optional[float] = None
        self._overlap_since: Optional[float] = None
        self.active_s = 0.0
        self.overlap_s = 0.0

    # -- worker refcount ----------------------------------------------------
    def retain(self, workers: int) -> None:
        """Declare how many stage workers will run this pipeline."""
        with self._cond:
            self._workers = workers

    def release(self) -> bool:
        """One worker exited; ``True`` for the last one out (it owns the
        pipeline's metrics roll-up)."""
        with self._cond:
            self._workers -= 1
            return self._workers == 0

    # -- registration -------------------------------------------------------
    def add_stage(self, name: str) -> None:
        with self._cond:
            if name in self._done:
                raise ValueError(f"stage {name!r} already registered")
            self._order.append(name)
            self._done[name] = 0
            self._spent[name] = []
            self._finished[name] = False
            self._failed[name] = False
            self._skipped[name] = False
            self.stall_s[name] = 0.0

    def upstream_of(self, name: str) -> Optional[str]:
        idx = self._order.index(name)
        return self._order[idx - 1] if idx > 0 else None

    def downstream_of(self, name: str) -> Optional[str]:
        idx = self._order.index(name)
        return self._order[idx + 1] if idx + 1 < len(self._order) else None

    # -- interruption checks ------------------------------------------------
    def _interrupted(self) -> bool:
        return (self.cancelled is not None and self.cancelled.is_set()) or (
            self.crashed is not None and self.crashed.is_set()
        )

    # -- stage lifecycle ----------------------------------------------------
    def publish(self, stage: str, chunk: int, spent: float = 0.0) -> None:
        """Record chunk ``chunk`` of ``stage`` complete, at ``spent`` accounted
        seconds; wake all waiters."""
        with self._cond:
            if chunk + 1 > self._done[stage]:
                self._done[stage] = chunk + 1
            self._spent[stage].append(spent)
            self._cond.notify_all()

    def finish(self, stage: str) -> None:
        """The stage's commit is complete (its epilogue has run)."""
        with self._cond:
            self._finished[stage] = True
            self._done[stage] = self.chunks
            self._cond.notify_all()

    def fail(self, stage: str) -> None:
        """The stage aborted; downstream waiters unblock and abandon."""
        with self._cond:
            if self._finished[stage]:
                return  # completed before the failure signal: keep the result
            self._failed[stage] = True
            self._cond.notify_all()

    def skip(self, stage: str) -> None:
        """The stage will not run (e.g. PFS hop after a reroute landed
        the blob there already); downstream consumers return quietly."""
        with self._cond:
            self._skipped[stage] = True
            self._done[stage] = self.chunks
            self._cond.notify_all()

    def failed(self, stage: str) -> bool:
        with self._cond:
            return self._failed[stage]

    def skipped(self, stage: str) -> bool:
        with self._cond:
            return self._skipped[stage]

    def finished(self, stage: str) -> bool:
        with self._cond:
            return self._finished[stage]

    # -- waits --------------------------------------------------------------
    def _stalled_wait(self, stage: str, ready) -> bool:
        """Wait until ``ready()`` (lock held inside), tallying stall time.

        Returns ``False`` when the wait was interrupted (upstream failure,
        cancellation, injected crash) — the caller abandons its stage.
        """
        with self._cond:
            status = ready()
            if status is not None:
                return status  # no stall: nothing to tally
            started = self.clock.now()
            try:
                interrupts = tuple(e for e in (self.cancelled, self.crashed) if e is not None)
                while status is None and not self._interrupted():
                    # Woken by publish/fail/skip, a crash or a cancel.
                    self._cond.wait(None, interrupts)
                    status = ready()
                return bool(status)  # (None: interrupted)
            finally:
                self.stall_s[stage] += self.clock.now() - started

    def await_upstream(self, stage: str, chunk: int) -> bool:
        """Block until the upstream stage published chunk ``chunk``.

        ``True`` once available; ``False`` when the upstream failed (the
        chunk will never arrive) or the pipeline was interrupted.
        """
        upstream = self.upstream_of(stage)
        if upstream is None:
            return True

        def ready():
            if self._done[upstream] > chunk:
                return True
            if self._failed[upstream]:
                return False
            return None

        return self._stalled_wait(stage, ready)

    def await_finished(self, stage: str, other: str) -> bool:
        """Block until ``other``'s commit completed (``False`` on failure)."""

        def ready():
            if self._finished[other] or self._skipped[other]:
                return True
            if self._failed[other]:
                return False
            return None

        return self._stalled_wait(stage, ready)

    def throttle(self, stage: str, chunk: int, ring: int) -> bool:
        """Bounce-ring backpressure, for a stage whose output lives in a
        bounded buffer (the flush cascade's ``f2r``): park until the
        downstream consumer is within ``ring`` chunks of ``chunk``.  A
        failed/skipped downstream releases the producer (``True`` — the
        producer keeps going)."""
        downstream = self.downstream_of(stage)
        if downstream is None:
            return True

        def ready():
            if self._failed[downstream] or self._skipped[downstream]:
                return True
            if chunk - self._done[downstream] < ring:
                return True
            return None

        return self._stalled_wait(stage, ready)

    # -- the chunk step -------------------------------------------------------
    def charge_chunk(
        self, stage: str, chunk: int, nbytes: int, charge, bus, track: str, causal: tuple
    ):
        """The one pipeline chunk step: run ``charge()`` (chunk ``chunk`` of
        ``stage`` on its link), publish it downstream, return its result.

        Occupancy accounting and the ``<stage>-chunk`` slice (on ``track``,
        nested under the stage span, carrying ``causal``, a
        :meth:`~repro.core.hop.Leg.causal` triple) exist on multi-chunk
        plans only: a whole-object transfer is one chunk, which its stage
        span already covers.
        """
        if self.chunks == 1:
            result = charge()
        else:
            t0 = self.enter_chunk()
            try:
                result = charge()
            finally:
                t1 = self.exit_chunk()
            if bus.enabled:
                op_id, category, args = causal
                bus.record(
                    f"{stage}-chunk", track, t0, "X", t1 - t0,
                    {"ckpt": self.ckpt_id, "chunk": chunk, "bytes": nbytes, **args},
                    op_id, None, category,
                )
        self.publish(stage, chunk, result)
        return result

    def critical_s(self) -> float:
        """Accounted seconds of the longest dependency chain through the
        stage × chunk grid: a stage starts chunk *i* once it finished chunk
        *i - 1* and its upstream published chunk *i*.  One stage: the sum of
        its chunks; one chunk: the sum of the stages; a full pipeline: about
        the slowest stage plus one chunk of each other.  Not the clock, which
        adds every thread hand-off between chunk steps."""
        ready: List[float] = []  # when the stage above published each chunk
        with self._cond:
            for stage in self._order:
                done, row = 0.0, []
                for i, spent in enumerate(self._spent[stage]):
                    done = max(done, ready[i] if i < len(ready) else 0.0) + spent
                    row.append(done)
                ready = row or ready  # (a skipped stage charged nothing)
        return ready[-1] if ready else 0.0

    # -- occupancy accounting ----------------------------------------------
    def enter_chunk(self) -> float:
        """A stage starts charging one chunk on its link; returns now."""
        now = self.clock.now()
        with self._cond:
            self._active += 1
            if self._active == 1:
                self._active_since = now
            elif self._active == 2:
                self._overlap_since = now
        return now

    def exit_chunk(self) -> float:
        """A stage finished charging one chunk; returns now."""
        now = self.clock.now()
        with self._cond:
            self._active -= 1
            if self._active == 1 and self._overlap_since is not None:
                self.overlap_s += now - self._overlap_since
                self._overlap_since = None
            if self._active == 0 and self._active_since is not None:
                self.active_s += now - self._active_since
                self._active_since = None
        return now
