"""The prefetch pipeline: one worker per hop (``core/prefetcher.py``).

The GPU hop (host→GPU) and the staging hop (store→host) run on their own
threads, so a storage read runs ahead of the restore front while PCIe
serves the head of the hint queue.  These tests pin down what that adds
and what it must not break:

* staging is not held up by a full GPU budget, and overlaps the GPU hop;
* a staging claim never evicts a checkpoint hinted nearer than its own,
  so nothing is read from the SSD twice;
* staging goes nearest-first and stops at a horizon worked out from the
  host budget;
* a demand episode pauses both workers, and ``prefetch_inflight`` keeps
  any two promoters off one record;
* GPUDirect has no staging hop; a fused read whose GPU claim the budget
  refuses lands the host alone; predicted entries stay revocable;
* each worker draws on its own trace track, and chain ops do not leak;
* both workers and a demand restore run one step (``Prefetcher.step``) with
  one release and one back-off order, and a worker outlives a step that
  raises something unexpected;
* a worker with no hint to walk parks on ``monitor.hints`` and sleeps
  through every other change of the engine.
"""

import collections
import contextlib
import sys
import threading

import pytest

import repro.core.prefetcher as prefetcher_module
from repro.clock import Condition
from repro.config import AnalysisConfig, PredictConfig, StreamConfig
from repro.core.catalog import CheckpointRecord
from repro.core.engine import ScoreEngine
from repro.core.lifecycle import CkptState
from repro.core.sync import Monitor
from repro.core.validator import InvariantViolation, validate_engine
from repro.errors import ReproError, TransientTransferError
from repro.metrics.recorder import OpKind
from repro.tiers.base import TierLevel
from repro.tiers.topology import Cluster
from repro.util.units import MiB
from repro.workloads.multiproc import run_multiprocess_shot
from repro.workloads.patterns import RestoreOrder, restore_order
from repro.workloads.rtm import uniform_trace
from repro.workloads.shot import HintMode, ShotSpec, run_shot
from tests.conftest import TEST_SCALE, both_chunk_plans, make_buffer, quiesce, tiny_config

CKPT = 128 * MiB  # tiny_config: 4 GPU slots, 16 host slots
GPU, HOST, SSD = TierLevel.GPU, TierLevel.HOST, TierLevel.SSD
READ_COMPLETE = CkptState.READ_COMPLETE


def _engine(stream=StreamConfig(), engine_kwargs=None, **changes):
    """A telemetry-on cluster and one engine; the caller closes both."""
    cluster = Cluster(tiny_config(telemetry=True, stream=stream, **changes))
    ctx = cluster.process_contexts()[0]
    return cluster, ctx, ScoreEngine(ctx, **(engine_kwargs or {}))


def _write(engine, ctx, count):
    """``count`` checkpoints, each durable before the next is written — so
    every eviction on the way chooses among flushed extents only, and what
    the caches end up holding does not depend on thread timing."""
    for v in range(count):
        engine.checkpoint(v, make_buffer(ctx, CKPT, seed=v))
        engine.wait_for_flushes(timeout=600.0)


def _evict_to(engine, level, *versions):
    """Drop the cached copies of ``versions`` above ``level``: ``HOST``
    leaves the host copy, ``SSD`` leaves the durable one only."""
    for v in versions:
        record = engine.catalog.get(v)
        engine.gpu_cache.release(record)
        if level > HOST:
            engine.host_cache.release(record)
            assert record.fastest_cached_level() is None


@contextlib.contextmanager
def _paused(engine):
    """Both workers held off, as during a demand episode, and nothing in
    flight: the caches can be rearranged under the prefetcher's feet."""
    with engine.monitor:
        engine.demand_active += 1
    quiesce(engine)
    try:
        yield
    finally:
        with engine.monitor:
            engine.demand_active -= 1
            engine.monitor.notify_all()


def _pin_gpu(engine, *versions):
    """Land four host-resident ``versions`` on the GPU as prefetched-but-
    unconsumed extents: the GPU prefetch budget is full and no GPU claim
    can evict anything."""
    assert len(versions) == 4
    for v in versions:
        record = engine.catalog.get(v)
        engine.gpu_cache.release(record)
        assert engine.promote_once(record, HOST, GPU, blocking=True, allow_pinned=False) is not None
    budget = prefetcher_module.PREFETCH_BUDGET_FRACTION * engine.gpu_cache.table.capacity
    assert engine.gpu_cache.pinned_bytes() + CKPT > budget


def _hint(engine, order):
    for v in order:
        engine.prefetch_enqueue(v)
    engine.prefetch_start()


def _state(engine, version, level):
    inst = engine.catalog.get(version).peek(level)
    return None if inst is None else inst.state


def _wait(engine, predicate, virtual_timeout=600.0):
    with engine.monitor:
        return engine.monitor.wait_for(predicate, virtual_timeout=virtual_timeout)


def _staged_from_store(engine):
    """Checkpoint ids the prefetcher read off a store, in completion order."""
    return [
        e.ckpt_id
        for e in engine.recorder.of_kind(OpKind.PREFETCH)
        if e.source_level != "HOST"
    ]


def _promotion_spans(cluster):
    """``{track: [(start, end, ckpt), ...]}`` of both workers' spans."""
    spans = {}
    for ev in cluster.telemetry.bus.snapshot():
        if ev.name in ("prefetch", "prefetch-stage"):
            spans.setdefault(ev.track, []).append((ev.ts, ev.ts + ev.dur, ev.args["ckpt"]))
    return spans


def _hinted_shot(engine, snapshots=24, compute_interval=0.25):
    """A whole hinted shot, reverse order, flush barrier before the hints
    take effect; returns the ``ShotResult``."""
    spec = ShotSpec(
        trace=uniform_trace(TEST_SCALE, num_snapshots=snapshots, size=CKPT),
        restore_order=restore_order(RestoreOrder.REVERSE, snapshots, seed=3),
        hint_mode=HintMode.ALL,
        # By default 0.5 ms of wall time per restore: long enough for the
        # workers to keep ahead of the restores on the 0.002 test clock.
        compute_interval=compute_interval,
        wait_for_flush=True,
        seed=3,
    )
    return run_shot(engine, spec)


class TestStagingRunsAhead:
    @both_chunk_plans
    def test_full_gpu_budget_does_not_hold_up_staging(self, stream):
        """(a)/(g) The head of the queue waits for GPU budget; a durable
        SSD-only checkpoint behind it is staged all the same — to the host
        alone, since there is no GPU budget to fuse into."""
        cluster, ctx, engine = _engine(stream)
        with cluster, engine:
            _write(engine, ctx, 8)
            _evict_to(engine, HOST, 1, 2, 3)
            _evict_to(engine, SSD, 0)
            _pin_gpu(engine, 4, 5, 6, 7)
            reads = cluster.telemetry.registry.counter("tier.ssd.read_ops")
            reads_before = reads.value
            _hint(engine, [7, 6, 5, 4, 3, 2, 1, 0])
            assert _wait(
                engine, lambda: _state(engine, 0, HOST) is READ_COMPLETE, virtual_timeout=60.0
            ), "the SSD-only checkpoint at the tail was never staged"
            quiesce(engine)
            assert engine.catalog.get(0).peek(GPU) is None
            assert reads.value == reads_before + 1
            assert engine.prefetcher.promotions == 1
            # 3, 2 and 1 sit on the host waiting for GPU budget, in order.
            assert [_state(engine, v, GPU) for v in (3, 2, 1)] == [None] * 3
            validate_engine(engine)

    @both_chunk_plans
    def test_store_read_and_h2d_hop_are_in_flight_together(self, stream):
        """(b) Each worker's transfer waits until the other's has started:
        only two threads can get both through."""
        cluster, ctx, engine = _engine(stream)
        with cluster, engine:
            _write(engine, ctx, 6)
            _evict_to(engine, HOST, 1)
            _evict_to(engine, SSD, 0)
            reading, hopping = threading.Event(), threading.Event()
            met = []

            def rendezvous(link, worker, mine, theirs):
                transfer = link.transfer

                def gated(nbytes, **kwargs):
                    if threading.current_thread().name == worker:
                        mine.set()
                        met.append(theirs.wait(timeout=10.0))
                    return transfer(nbytes, **kwargs)

                link.transfer = gated

            rendezvous(engine.ssd.read_link, "prefetcher-p0-host", reading, hopping)
            rendezvous(engine.device.h2d_link, "prefetcher-p0-gpu", hopping, reading)
            _hint(engine, [1, 0])  # 1: host→GPU; 0: SSD→host
            assert _wait(
                engine,
                lambda: _state(engine, 1, GPU) is READ_COMPLETE
                and _state(engine, 0, HOST) is READ_COMPLETE,
            )
            assert met and all(met), "the two hops never overlapped"
            quiesce(engine)
            spans = _promotion_spans(cluster)
            (g0, g1, g_ckpt), = [s for s in spans["p0-prefetch"] if s[2] == 1]
            (s0, s1, s_ckpt), = spans["p0-prefetch-stage"]
            assert (g_ckpt, s_ckpt) == (1, 0)
            assert max(g0, s0) < min(g1, s1), "spans on the two tracks do not overlap"
            validate_engine(engine)


class TestNearerHintBarrier:
    """The claim-level semantics are in ``tests/test_cache.py``
    (``TestPrefetchClaims``); here, what the worker does with them."""

    def test_worker_evicts_nothing_from_a_host_full_of_nearer_hints(self, monkeypatch):
        """(c) With the whole cache as budget the horizon lets the worker
        try; the barrier leaves it no window."""
        monkeypatch.setattr(prefetcher_module, "PREFETCH_BUDGET_FRACTION", 1.0)
        cluster, ctx, engine = _engine()
        with cluster, engine:
            _write(engine, ctx, 17)  # one more than the host cache holds
            (far,) = [r.ckpt_id for r in engine.catalog.all_records() if r.peek(HOST) is None]
            _evict_to(engine, SSD, far)
            assert engine.host_cache.table.free_bytes == 0
            _pin_gpu(engine, *[v for v in range(17) if v != far][:4])  # no GPU hop to do
            evictions = engine.host_cache.evictions
            _hint(engine, [v for v in range(17) if v != far] + [far])
            engine.clock.sleep(5.0)
            assert engine.host_cache.evictions == evictions
            assert engine.prefetcher.promotions == 0
            assert engine.catalog.get(far).peek(HOST) is None
            validate_engine(engine)

    @both_chunk_plans
    def test_a_hinted_shot_reads_nothing_twice(self, stream):
        """(c) Staging ahead must cost no extra SSD reads: the keys read
        are all distinct."""
        cluster, ctx, engine = _engine(stream)
        with cluster, engine:
            assert _hinted_shot(engine).error is None
            keys = {
                tuple(ev.args["key"])
                for ev in cluster.telemetry.bus.snapshot()
                if ev.name == "ssd-get"
            }
            read_ops = cluster.telemetry.registry.counter("tier.ssd.read_ops").value
            assert read_ops == len(keys) > 0
            assert engine.stats()["forced_evictions"] == 0
            validate_engine(engine)


class TestOrderAndHorizon:
    @both_chunk_plans
    def test_nearest_first_up_to_the_host_budget(self, stream):
        """(d) Everything on the SSD only: staging walks the hints in order
        and stops when the host budget (0.9 x 16 slots) is pinned."""
        cluster, ctx, engine = _engine(stream)
        with cluster, engine:
            _write(engine, ctx, 24)
            _evict_to(engine, SSD, *range(24))
            _hint(engine, range(24))
            quiesce(engine)
            assert _staged_from_store(engine) == list(range(14))
            budget = prefetcher_module.PREFETCH_BUDGET_FRACTION * engine.host_cache.table.capacity
            assert engine.host_cache.pinned_bytes() <= budget
            # The GPU budget went to the head of the queue, in order.
            on_gpu = [v for v in range(24) if _state(engine, v, GPU) is READ_COMPLETE]
            assert on_gpu == [0, 1, 2]
            validate_engine(engine)

    def test_horizon_comes_from_the_cached_hints(self):
        """(d) Nothing is pinned, so the budget is free — but the sixteen
        nearer hints fill the host cache, so nothing behind them is staged
        until restores bring the candidate inside the horizon."""
        cluster, ctx, engine = _engine()
        with cluster, engine:
            _write(engine, ctx, 24)
            host = [r.ckpt_id for r in engine.catalog.all_records() if r.peek(HOST) is not None]
            ssd_only = [v for v in range(24) if v not in host]
            _evict_to(engine, SSD, *ssd_only)
            assert len(host) == 16 and engine.host_cache.pinned_bytes() == 0
            order = host + ssd_only
            _pin_gpu(engine, *order[:4])  # leave the GPU hop out of it
            with _paused(engine):
                _hint(engine, order)
                quiesce(engine)
                assert engine.prefetcher.promotions == 0
                out = ctx.device.alloc_buffer(CKPT)
                for v in order[:2]:
                    engine.restore(v, out)
            quiesce(engine)
            # 14 nearer slots fit under 0.9 x 16; with the staged one, 15 do not.
            assert _staged_from_store(engine) == [ssd_only[0]]
            validate_engine(engine)


class TestExclusion:
    def test_demand_episode_pauses_both_workers(self):
        """(e) ``demand_active`` stops every pick, whichever hop."""
        cluster, ctx, engine = _engine()
        with cluster, engine:
            _write(engine, ctx, 8)
            _evict_to(engine, HOST, 1, 2, 3)
            _evict_to(engine, SSD, 0)
            with _paused(engine):
                _hint(engine, [3, 2, 1, 0])
                engine.clock.sleep(5.0)
                assert engine.prefetcher.idle()
                assert engine.prefetcher.promotions == 0
            quiesce(engine)
            assert engine.prefetcher.promotions == 4  # 3, 2, 1 up; 0 in
            assert _state(engine, 0, HOST) is READ_COMPLETE
            assert _state(engine, 0, GPU) is None  # GPU budget: three slots
            validate_engine(engine)

    @both_chunk_plans
    @pytest.mark.parametrize("compute_interval", [0.1, 0.25], ids=["racing", "paced"])
    def test_one_promoter_per_record(self, stream, compute_interval):
        """(e) Two workers and a restoring thread never hold one record at
        once — whether the restores outrun the workers or not — and the
        shot's counters add up."""
        cluster, ctx, engine = _engine(stream)
        with cluster, engine:
            lock = threading.Lock()
            active, clashes, prefetched = set(), [], []
            promote_once = engine.promote_once

            def exclusive(record, *args, **kwargs):
                with lock:
                    if record.ckpt_id in active:
                        clashes.append(record.ckpt_id)
                    active.add(record.ckpt_id)
                try:
                    seconds = promote_once(record, *args, **kwargs)
                finally:
                    with lock:
                        active.discard(record.ckpt_id)
                if seconds is not None and not kwargs["blocking"]:
                    with lock:
                        prefetched.append(record.ckpt_id)
                return seconds

            engine.promote_once = exclusive
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # hand the interpreter over mid-update
            try:
                assert _hinted_shot(engine, compute_interval=compute_interval).error is None
            finally:
                sys.setswitchinterval(interval)
            assert not clashes
            engine.prefetcher.stop()  # joins: the counters are final
            assert engine.prefetcher.promotions == len(prefetched)
            assert engine.stats()["promotions"] == len(prefetched)
            registry = cluster.telemetry.registry
            assert registry.counter("prefetch.promotions").value == len(prefetched)
            if compute_interval == 0.25:
                assert prefetched  # paced restores leave the workers time to act
            validate_engine(engine)


class TestPlacement:
    @both_chunk_plans
    def test_gpudirect_runs_one_worker_and_lands_gpu_only(self, stream):
        """(f) No host tier in the read direction: no staging hop."""
        cluster, ctx, engine = _engine(stream, engine_kwargs={"gpudirect": True})
        with cluster, engine:
            workers = [t.name for t in threading.enumerate() if t.name.startswith("prefetcher-p0")]
            assert workers == ["prefetcher-p0-gpu"]
            assert engine.prefetcher.hops == (GPU,)
            _write(engine, ctx, 1)
            _evict_to(engine, SSD, 0)
            _hint(engine, [0])
            quiesce(engine)
            assert _state(engine, 0, GPU) is READ_COMPLETE
            assert engine.catalog.get(0).peek(HOST) is None
            assert set(_promotion_spans(cluster)) == {"p0-prefetch"}
            validate_engine(engine)

    def test_fused_read_lands_both_while_gpu_budget_lasts(self):
        """(g) Many chunks: the staging read fills a GPU extent too, until
        the GPU budget (three slots) refuses the claim — then the host
        extent lands alone instead of waiting."""
        cluster, ctx, engine = _engine(StreamConfig(enabled=True))
        with cluster, engine:
            _write(engine, ctx, 6)
            _evict_to(engine, SSD, *range(6))
            reads = cluster.telemetry.registry.counter("tier.ssd.read_ops")
            reads_before = reads.value
            _hint(engine, range(6))
            quiesce(engine)
            assert [_state(engine, v, HOST) for v in range(6)] == [READ_COMPLETE] * 6
            assert [_state(engine, v, GPU) for v in range(6)] == [READ_COMPLETE] * 3 + [None] * 3
            assert reads.value == reads_before + 6
            assert engine.prefetcher.promotions == 6  # no separate host→GPU hop
            # The chunk slices of a store read are drawn where its hop is.
            events = cluster.telemetry.bus.snapshot()
            slices = [ev for ev in events if ev.name in ("read-chunk", "h2d-chunk")]
            assert len(slices) == 2 * 3 * engine.chunks_for(CKPT)
            assert {ev.track for ev in slices} == {"p0-prefetch-stage"}
            validate_engine(engine)

    @both_chunk_plans
    def test_predicted_entries_are_staged_as_revocable_extents(self, stream):
        """(h) An overlay entry is speculation on either hop."""
        cluster, ctx, engine = _engine(stream, predict=PredictConfig(enabled=True))
        with cluster, engine:
            _write(engine, ctx, 6)
            with _paused(engine):  # the overlay is live: speculation has begun
                _evict_to(engine, SSD, 0)
                with engine.monitor:
                    engine.queue.refresh([(0, 0.9)])
                    assert next(engine.queue.iter_upcoming()) == 0
                    assert not engine.queue.is_explicit(0)
            assert _wait(engine, lambda: _state(engine, 0, HOST) is READ_COMPLETE)
            quiesce(engine)
            record = engine.catalog.get(0)
            assert record.peek(HOST).speculative
            # Earlier speculation may hold the GPU budget; if the hop (or the
            # fused landing) happened, that extent is revocable too.
            assert record.peek(GPU) is None or record.peek(GPU).speculative
            assert engine.stats()["prediction"]["spec_prefetches"] >= 1
            validate_engine(engine)


class TestTraceAndChains:
    @both_chunk_plans
    def test_spans_on_one_track_never_overlap(self, stream):
        """(i) One worker, one track: its promotion spans are sequential."""
        cluster, ctx, engine = _engine(stream)
        with cluster, engine:
            assert _hinted_shot(engine).error is None
            spans = _promotion_spans(cluster)
            assert set(spans) == {"p0-prefetch", "p0-prefetch-stage"}
            for track, intervals in spans.items():
                intervals.sort()
                for (_, end, a), (start, _, b) in zip(intervals, intervals[1:]):
                    assert end <= start, f"{track}: spans of {a} and {b} overlap"
            validate_engine(engine)

    def test_demand_taking_the_last_hop_drops_the_chain_op(self):
        """With causal tracing on, a chain whose last hop a demand restore
        took used to stay cached for the life of the engine."""
        cluster, ctx, engine = _engine(analysis=AnalysisConfig(enabled=True))
        with cluster, engine:
            assert engine.ops.enabled
            _write(engine, ctx, 6)
            _evict_to(engine, SSD, 0)
            _pin_gpu(engine, 1, 2, 3, 4)  # staged to the host, then no GPU budget to hop
            _hint(engine, [0])
            assert _wait(engine, lambda: _state(engine, 0, HOST) is READ_COMPLETE)
            quiesce(engine)
            assert engine.prefetcher.open_chains() == [0]
            engine.restore(0, ctx.device.alloc_buffer(CKPT))
            assert engine.prefetcher.open_chains() == []
            validate_engine(engine)

    @pytest.mark.parametrize("compute_interval", [0.05, 0.25], ids=["racing", "paced"])
    def test_no_chain_op_outlives_a_hinted_shot(self, compute_interval):
        cluster, ctx, engine = _engine(analysis=AnalysisConfig(enabled=True))
        with cluster, engine:
            assert _hinted_shot(engine, compute_interval=compute_interval).error is None
            assert engine.prefetcher.open_chains() == []
            validate_engine(engine)

    def test_validator_reports_a_leaked_chain_op(self):
        cluster, ctx, engine = _engine(analysis=AnalysisConfig(enabled=True))
        with cluster, engine:
            _write(engine, ctx, 2)
            engine.restore(0, ctx.device.alloc_buffer(CKPT))
            with engine.monitor:
                engine.prefetcher._chain_op(0, "p0-prefetch")
            with pytest.raises(InvariantViolation, match="already consumed"):
                validate_engine(engine)


def _worker_wakes(monkeypatch, owner):
    """Count the returns of ``owner.wait`` on prefetch-worker threads, by
    thread name: each is one wake-up (``stop`` wakes every parked worker)."""
    calls = collections.Counter()
    real = owner.wait

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        thread = threading.current_thread().name
        if thread.startswith("prefetcher-"):
            calls[thread] += 1
        return result

    monkeypatch.setattr(owner, "wait", counted)
    return calls


class TestHintParking:
    """With an unstarted or empty hint queue a pick finds nothing whatever
    else changes, so a worker parks on ``monitor.hints`` instead of being
    woken by every landing, reservation and consume."""

    def test_a_run_without_hints_never_waits_on_the_main_condition(self, monkeypatch):
        main_waits = _worker_wakes(monkeypatch, Monitor)
        snapshots = 8
        config = tiny_config(processes_per_node=2)
        specs = [
            ShotSpec(
                trace=uniform_trace(config.scale, num_snapshots=snapshots, size=CKPT, rank=rank),
                restore_order=restore_order(RestoreOrder.REVERSE, snapshots),
                hint_mode=HintMode.NONE,
                compute_interval=0.005,
                seed=rank,
            )
            for rank in range(2)
        ]
        with Cluster(config) as cluster:
            results = run_multiprocess_shot(cluster, lambda ctx: ScoreEngine(ctx), specs)
        assert [len(r.recorder.of_kind(OpKind.RESTORE)) for r in results] == [snapshots] * 2
        assert main_waits == {}

    def test_hinted_workers_sleep_until_the_start(self, monkeypatch):
        wakes = _worker_wakes(monkeypatch, Condition)
        cluster, ctx, engine = _engine()
        with cluster, engine:
            for v in (0, 1, 2, 3):
                engine.prefetch_enqueue(v)
            _write(engine, ctx, 8)
            _evict_to(engine, HOST, 0, 1, 2)  # the GPU kept the hinted 0..2
            assert wakes == {}, "a worker woke before prefetch_start"
            engine.prefetch_start()
            quiesce(engine)
            assert wakes["prefetcher-p0-gpu"] > 0
            promoted = [e.ckpt_id for e in engine.recorder.of_kind(OpKind.PREFETCH)]
            assert promoted[0] == 0  # the nearest hint goes first, as ever
            validate_engine(engine)


#: what the step under test meets in ``promote_once`` -> what it raises
#: (``None``: the promotion is refused; absent: it runs and lands).
STEP_FAULTS = {
    "refused": None,
    "transient": TransientTransferError,  # an injected link fault
    "moved": ReproError,  # the source moved meanwhile
}

#: the caller of a step -> the thread it runs on.
STEPPERS = {"demand": "MainThread", "gpu": "prefetcher-p0-gpu", "staging": "prefetcher-p0-host"}


def _break_once(engine):
    """Make the first ``promote_once`` raise a ``RuntimeError`` (a bug, not
    a runtime fault); returns the list the failing thread's name lands in."""
    promote_once, raised = engine.promote_once, []

    def broken_once(record, *args, **kwargs):
        if not raised:
            raised.append(threading.current_thread().name)
            raise RuntimeError("a bug in the step")
        return promote_once(record, *args, **kwargs)

    engine.promote_once = broken_once
    return raised


class TestStep:
    @pytest.mark.parametrize("fault", ["landed", *STEP_FAULTS])
    @pytest.mark.parametrize("caller", list(STEPPERS))
    def test_one_bracket_for_every_caller(self, caller, fault, monkeypatch):
        """One step of checkpoint 0 meets ``fault``; from the moment
        ``promote_once`` returns to the moment the step does, its thread
        sees a transient back-off with the record still held, then one
        release with the monitor notified."""
        cluster, ctx, engine = _engine()
        with cluster, engine:
            _write(engine, ctx, 2)
            _evict_to(engine, HOST if caller == "gpu" else SSD, 0)
            record = engine.catalog.get(0)
            events, landed, hit = [], [], []
            armed = threading.local()  # between promote_once and the step's return

            def note(*event):
                if getattr(armed, "on", False):
                    events.append(event)

            promote_once = engine.promote_once

            def promote(rec, src, dst, **kwargs):
                if hit or rec is not record or (dst == HOST) == (caller == "gpu"):
                    seconds = promote_once(rec, src, dst, **kwargs)
                else:
                    hit.append(threading.current_thread().name)
                    try:
                        if fault != "landed":
                            if STEP_FAULTS[fault] is not None:
                                raise STEP_FAULTS[fault](f"injected: {fault}")
                            return None
                        seconds = promote_once(rec, src, dst, **kwargs)
                    finally:
                        armed.on = True
                if rec is record and seconds is not None:
                    landed.append(seconds)
                return seconds

            step = engine.prefetcher.step

            def stepped(*args, **kwargs):
                try:
                    return step(*args, **kwargs)
                finally:
                    armed.on = False

            def set_inflight(rec, value):
                if rec is record:
                    note("inflight", value)
                rec.__dict__["prefetch_inflight"] = value

            def notify_all(notify_all=engine.monitor.notify_all):
                note("notify")
                notify_all()

            def sleep(seconds, *args, sleep=engine.clock.sleep):
                note("sleep", seconds)
                return sleep(seconds, *args)

            blocked = []

            def await_gpu_copy(*args, await_gpu_copy=engine._await_gpu_copy):
                blocked.append(await_gpu_copy(*args))
                return blocked[-1]

            for obj, name, fake in [
                (engine, "promote_once", promote),
                (engine, "_await_gpu_copy", await_gpu_copy),
                (engine.prefetcher, "step", stepped),
                (engine.monitor, "notify_all", notify_all),
                (engine.clock, "sleep", sleep),
            ]:
                monkeypatch.setattr(obj, name, fake)
            inflight = property(lambda rec: rec.__dict__["prefetch_inflight"], set_inflight)
            monkeypatch.setattr(CheckpointRecord, "prefetch_inflight", inflight, raising=False)
            registry = cluster.telemetry.registry
            retries = registry.counter("prefetch.retries")
            if caller == "demand":
                engine.restore(0, ctx.device.alloc_buffer(CKPT))
                # Nothing stalled: blocked is the landed steps' seconds alone,
                # back-offs not counted.
                assert blocked == [sum(landed)] and len(landed) == 2
            else:
                _hint(engine, [0])
                if fault == "refused":
                    # A refused claim parks until something changes the
                    # cache (nothing did): change it.
                    assert _wait(engine, lambda: bool(hit))
                    quiesce(engine)
                    with engine.monitor:
                        engine.monitor.notify_all()
                assert _wait(engine, lambda: _state(engine, 0, GPU) is READ_COMPLETE)
                quiesce(engine)
                assert blocked == []
            assert hit == [STEPPERS[caller]]
            released = [("inflight", False), ("notify",)]
            # The first back-off of the run's retry schedule, under the
            # step's label.
            label = "demand" if caller == "demand" else "prefetch"
            backoff = engine.retry_policy.backoff(0, label, 0)
            assert events == {
                "transient": [("sleep", backoff), *released],
            }.get(fault, released)
            worker = caller != "demand"
            assert retries.value == int(worker and fault in ("transient", "moved"))
            assert not record.prefetch_inflight
            validate_engine(engine)

    def test_a_worker_outlives_an_unexpected_error(self):
        """A bug in one staging step is counted and traced on the worker's
        track; the worker backs off and stages both hints all the same."""
        cluster, ctx, engine = _engine()
        with cluster, engine:
            _write(engine, ctx, 4)
            _evict_to(engine, SSD, 0, 1)
            raised = _break_once(engine)
            _hint(engine, [0, 1])
            assert _wait(engine, engine.prefetcher.idle), "a prefetch worker died"
            assert raised == ["prefetcher-p0-host"]
            assert [_state(engine, v, GPU) for v in (0, 1)] == [READ_COMPLETE] * 2
            workers = [t for t in threading.enumerate() if t.name.startswith("prefetcher-p0-")]
            assert len(workers) == 2 and all(t.is_alive() for t in workers)
            assert cluster.telemetry.registry.counter("engine.swallowed_errors").value == 1
            events = cluster.telemetry.bus.snapshot()
            (error,) = [e for e in events if e.name == "prefetch-step-error"]
            assert error.track == "p0-prefetch-stage"
            assert (error.args["ckpt"], error.args["hop"]) == (0, "HOST")
            assert not any(r.prefetch_inflight for r in engine.catalog.all_records())
            validate_engine(engine)

    def test_a_demand_restore_raises_it(self):
        """The same bug under a restore reaches its caller, nothing held."""
        cluster, ctx, engine = _engine()
        with cluster, engine:
            _write(engine, ctx, 2)
            _evict_to(engine, SSD, 0)
            raised = _break_once(engine)
            out = ctx.device.alloc_buffer(CKPT)
            with pytest.raises(RuntimeError, match="a bug in the step"):
                engine.restore(0, out)
            assert raised == ["MainThread"]
            assert not engine.catalog.get(0).prefetch_inflight and engine.demand_active == 0
            assert cluster.telemetry.registry.counter("engine.swallowed_errors").value == 0
            engine.restore(0, out)
            validate_engine(engine)
