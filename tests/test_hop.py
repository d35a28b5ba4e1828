"""The hop contract (``core/hop.py``): claim → chunk loop → commit → land,
and whatever goes wrong in between, nothing is left behind.

One matrix over every hop of the runtime — the flush stages (``d2h``,
``h2f``, ``d2s``, ``f2r`` → ``f2p``), the whole-object copies (``repl``,
SSD backfill, cluster repair) and the promotions (host→GPU, store→host,
store→GPU, fused, and off a peer's SSD across the fabric) — × where it fails
(at the claim, at chunk *k*, at the commit) × how (an injected link fault, a dark tier, a discard's cancel, a
refused non-blocking claim) × both chunk plans.  After each: no reserved
extent is left (``validate_engine``), no copy stays ``flush_pending`` or
``read_pinned``, the failed stage is failed and its neighbours are released
(``wait_for_flushes`` returns), a flush counts exactly one abandonment, and
the sink's circuit breaker is fed once per failed attempt.

Plus: the stage table equals the four cascade orders, and an exception a
stage was not written to expect is counted, traced and logged instead of
sitting unread on a stream event.
"""

import sys
from contextlib import contextmanager

import pytest

import repro.core.flusher as flusher_module
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, StreamConfig
from repro.core.engine import ScoreEngine
from repro.core.flusher import Flusher
from repro.core.streaming import ChunkPipeline
from repro.core.validator import validate_engine
from repro.errors import TierOfflineError, TransferError, TransientTransferError
from repro.faults.retry import MAX_RETRIES
from repro.tiers.base import TierLevel
from repro.tiers.topology import Cluster, ProcessContext
from repro.util.units import MiB
from tests.conftest import both_chunk_plans, make_buffer, start_runners, tiny_config

CKPT = 128 * MiB  # eight 16 MiB chunks under the streamed plan


@contextmanager
def failing(obj, name, exc=None, at=0, times=1, before=None):
    """Make calls ``at`` … ``at + times - 1`` of ``obj.name`` raise ``exc``
    (or run ``before()`` and go on: a cancel fires, then the real call
    notices it).  Yields the list of call indices seen."""
    real = getattr(obj, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(len(calls))
        if at <= calls[-1] < at + times:
            if before is not None:
                before()
            if exc is not None:
                raise exc
        return real(*args, **kwargs)

    setattr(obj, name, wrapper)
    try:
        yield calls
    finally:
        delattr(obj, name)


@contextmanager
def faulting(link, at=0, after=0):
    """The transfer ``at`` that crosses ``link`` — granted it or crossing it
    alongside another — faults once ``after`` of its bytes moved, as an
    attached fault injector would.  Yields the list of draws seen."""
    draws = []

    class Injector:
        def draw(self, nbytes):
            draws.append(nbytes)
            return after if len(draws) - 1 == at else None

        def fault(self, nbytes, moved):
            return TransientTransferError(f"injected fault on {link.name}", bytes_moved=moved)

    real, link.fault_injector = link.fault_injector, Injector()
    try:
        yield draws
    finally:
        link.fault_injector = real


@contextmanager
def recorded_pipelines(monkeypatch):
    """Every ChunkPipeline the flusher builds while the block runs."""
    built = []

    class Recorded(ChunkPipeline):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(flusher_module, "ChunkPipeline", Recorded)
    yield built


@contextmanager
def breaker_feeds(engine):
    """``{"failure": [...], "success": [...]}`` breaker ids fed meanwhile."""
    fed = {"failure": [], "success": []}
    real_failure, real_success = engine.health.failure, engine.health.success
    engine.health.failure = lambda name: (fed["failure"].append(name), real_failure(name))[1]
    engine.health.success = lambda name: (fed["success"].append(name), real_success(name))[1]
    try:
        yield fed
    finally:
        del engine.health.failure, engine.health.success


def assert_nothing_left(engine):
    """The part of the contract every hop shares."""
    validate_engine(engine)  # tables tile, no reserved extent, no pin forever
    for record in engine.catalog.all_records():
        for level, inst in record.instances.items():
            assert not inst.flush_pending, (record.ckpt_id, level)
            assert inst.read_pinned == 0, (record.ckpt_id, level)
            assert inst.has_copy, (record.ckpt_id, level, inst.state)


# -- the stage table ---------------------------------------------------------

CASCADES = {
    (False, False): ["d2h", "h2f"],
    (False, True): ["d2h", "h2f", "f2r", "f2p"],
    (True, False): ["d2s"],
    (True, True): ["d2s", "f2r", "f2p"],
}


@pytest.mark.parametrize("replicas", [False, True], ids=["alone", "replicated"])
@pytest.mark.parametrize("gpudirect,flush_to_pfs", sorted(CASCADES))
def test_stage_table_is_the_four_cascade_orders(gpudirect, flush_to_pfs, replicas):
    changes = {}
    if replicas:
        changes = dict(num_nodes=2, cluster=ClusterConfig(enabled=True, replica_factor=2))
    with Cluster(tiny_config(**changes)) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, gpudirect=gpudirect, flush_to_pfs=flush_to_pfs) as engine:
            flusher = engine.flusher
            assert [leg.stage for leg in flusher.cascade] == CASCADES[gpudirect, flush_to_pfs]
            assert all(leg.stream is not None for leg in flusher.cascade)
            assert (flusher.legs["repl"].stream is not None) == replicas
            pid = engine.process_id
            # GPUDirect rides the d2h stream and track; every other stage its own.
            assert flusher.legs["d2s"].track == flusher.legs["d2h"].track == f"p{pid}-flush-d2h"
            assert flusher.legs["d2s"].stream is flusher.d2h_stream
            streams = [leg.stream for leg in flusher.cascade]
            assert len(set(map(id, streams))) == len(streams)
            engine.checkpoint(0, make_buffer(ctx, CKPT, seed=0))
            engine.wait_for_flushes(timeout=600.0)
            level = TierLevel.PFS if flush_to_pfs else TierLevel.SSD
            assert engine.catalog.get(0).durable_level is level
            assert flusher.replicated == (1 if replicas else 0)
            assert_nothing_left(engine)


# -- silent stage failure ------------------------------------------------------

@pytest.mark.parametrize(
    "body,stage",
    [
        ("_stage_d2h", "d2h"),
        ("_stage_durable", "h2f"),
        ("_stage_f2r", "f2r"),
        ("_stage_f2p", "f2p"),
        ("_replicate", "repl"),
    ],
)
def test_unexpected_stage_exception_is_counted_traced_and_contained(monkeypatch, body, stage):
    """A stage body raising what no stage is written to expect used to end on
    a stream Event nobody reads: ``wait_for_flushes`` returned normally with
    nothing durable, nothing abandoned, nothing counted and nothing logged."""

    def boom(self, *args, **kwargs):
        raise RuntimeError(f"injected {stage} bug")

    monkeypatch.setattr(Flusher, body, boom)  # before the stage table is built
    cfg = tiny_config(
        telemetry=True, num_nodes=2, cluster=ClusterConfig(enabled=True, replica_factor=2)
    )
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            engine.checkpoint(0, make_buffer(ctx, CKPT, seed=0))
            engine.wait_for_flushes(timeout=600.0)  # neighbours were unblocked
            registry = cluster.telemetry.registry
            assert registry.counter("engine.swallowed_errors").value == 1
            errors = [
                event for event in cluster.telemetry.bus.snapshot()
                if event.name == "flush-stage-error"
            ]
            assert len(errors) == 1
            assert errors[0].track == engine.flusher.legs[stage].track
            assert errors[0].args["ckpt"] == 0
            assert errors[0].args["stage"] == stage
            assert errors[0].args["error"] == "RuntimeError"
            # Stages above the broken one still landed; nothing below it did.
            durable = engine.catalog.get(0).durable_level
            expect = {"d2h": None, "h2f": None, "repl": TierLevel.PFS}
            assert durable is expect.get(stage, TierLevel.SSD)
            assert_nothing_left(engine)  # in particular: no extent pinned forever
            # The cached copy still serves the restore.
            out = ctx.device.alloc_buffer(CKPT)
            engine.restore(0, out)


def test_tallies_count_every_bump_from_every_thread(engine):
    """``abandoned``/``retries``/… are bumped by up to five stream threads:
    through one helper under one lock, read back under it by ``stats()``."""
    def bump():
        for _ in range(5000):
            engine.flusher._tally("retries")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # a lost read-modify-write shows at this rate
    try:
        for worker in start_runners(engine.clock, *[(bump,)] * 8):
            engine.clock.join(worker)
    finally:
        sys.setswitchinterval(interval)
    assert engine.flusher.retries == engine.flusher.tallies()["retries"] == 40000
    assert engine.stats()["abandoned_flushes"] == 0


# -- the flush hops ------------------------------------------------------------

LINK_FAULT = TransientTransferError("injected link fault")
OUTAGE = TierOfflineError("injected outage")
COMMIT_FAULT = TransferError("injected commit failure")


def _flush_case(engine, cluster, hop, point, how, chunk):
    """``(object, method, exception, call index)`` of one cell, and the
    breaker it feeds."""
    ssd, pfs = engine.ssd, cluster.pfs
    sink, link = {
        "d2h": (engine.host_cache, engine.device.d2h_link),
        "h2f": (ssd, ssd.write_link),
        "d2s": (ssd, ssd.write_link),
        "f2r": (None, ssd.read_link),
        # A written PFS chunk is one transfer on the node's share (the
        # aggregate is crossed alongside it), a replica one on the home
        # drive's read link (the fabric is crossed alongside it).
        "f2p": (pfs, pfs.node_links(engine.node_id)[0]),
        "repl": (cluster.nodes[-1].ssd, ssd.read_link),
    }[hop]
    if point == "claim":  # (replication is best effort: it feeds no breaker)
        return sink, "open_put", OUTAGE, 0, None if hop == "repl" else sink.track
    if point == "commit":
        name = "write_payload" if hop == "d2h" else "_commit_blob"
        return sink, name, COMMIT_FAULT, 0, None
    exc = LINK_FAULT if how == "link-fault" else None
    feeds = exc is not None and hop in ("h2f", "d2s", "f2p")  # a store put
    return link, "transfer", exc, chunk, sink.track if feeds else None


FLUSH_CELLS = [
    (hop, point, how)
    for hop in ("d2h", "h2f", "d2s", "f2r", "f2p", "repl")
    for point, how in (
        ("claim", "outage"), ("chunk", "link-fault"), ("chunk", "cancel"), ("commit", "fault")
    )
    # d2h claims a cache extent (blocking: it waits, it is not refused) and
    # commits by memcpy (the promotions below fail one); the read-back claims
    # and commits nothing.
    if not (hop in ("d2h", "f2r") and point != "chunk")
]


@both_chunk_plans
@pytest.mark.parametrize("hop,point,how", FLUSH_CELLS)
def test_flush_hop_failure_feeds_its_breaker_once(monkeypatch, stream, hop, point, how):
    """With no reroute, each cell fails every attempt, and each attempt is
    fed once to the breaker its hop × failure point names
    (claims and store-put chunks the sink's, replication none) — a transient
    fault ``MAX_RETRIES + 1`` times, a cancel or a commit failure once, as
    neither is retried — and still abandons."""
    if hop not in ("f2r", "f2p"):
        without_pfs(monkeypatch)  # nothing to reroute to
    attempts = MAX_RETRIES + 1 if how in ("outage", "link-fault") else 1
    fed, breaker = _flush_cell(monkeypatch, stream, hop, point, how, times=attempts)
    assert fed == ([breaker] * attempts if breaker else [])


def without_pfs(monkeypatch):
    """Engines built from here on have no PFS, so the durable hop has no
    store to reroute to."""
    monkeypatch.setattr(ProcessContext, "pfs", None)


def _flush_cell(monkeypatch, stream, hop, point, how, times=1):
    """Run one cell of the matrix, its failure point failing ``times`` calls
    in a row, and check the contract; returns the breakers fed a failure
    and the one the cell should feed."""
    changes = {"stream": stream}
    if hop == "repl":
        changes.update(num_nodes=2, cluster=ClusterConfig(enabled=True, replica_factor=2))
    chunk = 3 if stream.enabled and hop != "repl" else 0  # a replica is copied whole
    with Cluster(tiny_config(**changes)) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(
            ctx, gpudirect=hop == "d2s", flush_to_pfs=hop in ("f2r", "f2p")
        ) as engine:
            obj, name, exc, at, breaker = _flush_case(engine, cluster, hop, point, how, chunk)
            buf = make_buffer(ctx, CKPT, seed=7)
            expected = buf.checksum()
            cancel = None
            if how == "cancel":
                cancel = lambda: engine.catalog.get(0).cancel_flush.set()  # noqa: E731
            with recorded_pipelines(monkeypatch) as built, breaker_feeds(engine) as fed:
                with failing(obj, name, exc, at=at, times=times, before=cancel) as calls:
                    engine.checkpoint(0, buf)
                    engine.wait_for_flushes(timeout=600.0)  # neighbours released
            assert len(calls) > at, "the failure point was never reached"
            record = engine.catalog.get(0)
            # One abandonment, by the stage that failed; its neighbours bail
            # quietly.  (A cancel is seen by whichever stage holds a link.)
            assert engine.flusher.abandoned == 1 or how == "cancel"
            assert engine.flusher.abandoned >= 1
            (pipeline,) = built
            stage = "f2p" if (hop == "f2r" and how == "cancel") else hop
            if hop != "repl" and how != "cancel":
                assert pipeline.failed(stage)
            names = [leg.stage for leg in engine.flusher.cascade]
            for name, consumer in zip(names, names[1:] + [None]):
                # Every stage settled — or stopped producing for a consumer
                # that had already failed: nobody is left waiting on anybody.
                assert (
                    pipeline.failed(name) or pipeline.finished(name) or pipeline.skipped(name)
                    or pipeline.failed(consumer)
                ), name
            durable = {"d2h": None, "h2f": None, "d2s": None}.get(hop, TierLevel.SSD)
            if how != "cancel":
                assert record.durable_level is durable
            assert_nothing_left(engine)
            # The cached copy still serves the restore, bit for bit.
            out = ctx.device.alloc_buffer(CKPT)
            engine.restore(0, out)
            assert out.checksum() == expected
    return fed["failure"], breaker


@both_chunk_plans
def test_a_cancel_while_the_upgrade_waits_is_counted_by_the_read_back(monkeypatch, stream):
    """The read-back's chunk is held until ``f2p`` waits for it and the
    durable hop has landed; then the flush is cancelled.  ``f2p`` wakes on
    the cancel and bails quietly, so the read must honour the cancel and
    count the one abandonment (a read that ignores it counts none)."""
    chunk = 3 if stream.enabled else 0
    with Cluster(tiny_config(stream=stream)) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            waiting = engine.clock.event()
            real_await = ChunkPipeline.await_upstream

            def await_upstream(pipeline, stage, at):
                if stage == "f2p" and at == chunk:
                    waiting.set()
                return real_await(pipeline, stage, at)

            monkeypatch.setattr(ChunkPipeline, "await_upstream", await_upstream)
            with recorded_pipelines(monkeypatch) as built:

                def cancel_once_waited():
                    waiting.wait()
                    built[0].await_finished("f2r", "h2f")
                    engine.catalog.get(0).cancel_flush.set()

                read_link = engine.ssd.read_link
                with failing(read_link, "transfer", at=chunk, before=cancel_once_waited):
                    engine.checkpoint(0, make_buffer(ctx, CKPT, seed=3))
                    engine.wait_for_flushes(timeout=600.0)
            (pipeline,) = built
            assert pipeline.failed("f2r") and pipeline.failed("f2p")
            assert engine.flusher.abandoned == 1
            assert engine.catalog.get(0).durable_level is TierLevel.SSD
            assert_nothing_left(engine)


@both_chunk_plans
def test_retried_charge_feeds_the_breaker_once_per_attempt(monkeypatch, stream):
    """No PFS to reroute to: a persistently failing SSD chunk
    is retried ``MAX_RETRIES`` times, each attempt fed to the SSD breaker,
    then the hop is abandoned — one abandonment, nothing left behind."""
    without_pfs(monkeypatch)
    with Cluster(tiny_config(stream=stream)) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx) as engine:
            with breaker_feeds(engine) as fed:
                with failing(engine.ssd.write_link, "transfer", LINK_FAULT, at=0, times=99):
                    engine.checkpoint(0, make_buffer(ctx, CKPT, seed=1))
                    engine.wait_for_flushes(timeout=600.0)
            track = engine.ssd.track
            # The open is an attempt too (it succeeds); then every attempt
            # at chunk 0.
            assert fed["failure"] == [track] * (MAX_RETRIES + 1)
            assert fed["success"] == [track]
            assert engine.flusher.retries == MAX_RETRIES and engine.flusher.abandoned == 1
            assert engine.catalog.get(0).durable_level is None
            assert_nothing_left(engine)


# -- whole-object copies: backfill, repair ---------------------------------------

@pytest.mark.parametrize("point", ["claim", "chunk", "commit"])
def test_backfill_failure_requeues_and_feeds_the_breaker(point):
    with Cluster(tiny_config()) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            engine.checkpoint(0, make_buffer(ctx, CKPT, seed=2))
            engine.wait_for_flushes(timeout=600.0)
            record = engine.catalog.get(0)
            key = engine.store_key(record)
            engine.ssd.delete(key)  # durable on the PFS only, as after a reroute
            obj, name, exc = {
                "claim": (engine.ssd, "open_put", OUTAGE),
                "chunk": (engine.ssd.write_link, "transfer", LINK_FAULT),
                "commit": (engine.ssd, "_commit_blob", COMMIT_FAULT),
            }[point]
            with breaker_feeds(engine) as fed, failing(obj, name, exc):
                engine.flusher.backfill(record)
            assert fed["failure"] == [engine.ssd.track] and not fed["success"]
            assert engine.flusher.backfill_depth == 1 and engine.flusher.backfilled == 0
            assert not engine.ssd.contains(key)
            assert engine.flusher.abandoned == 0  # a stuck backfill is not an abandonment
            engine.wait_for_flushes(timeout=600.0)  # the next drain heals it
            assert engine.ssd.contains(key) and engine.flusher.backfilled == 1
            assert engine.flusher.backfill_depth == 0
            assert_nothing_left(engine)


def test_a_backfill_queued_during_the_sweep_is_drained_before_the_wait_returns():
    """A sweep's drain copies one PFS-only record, then a rerouted flush
    lands on the PFS and queues another before the sweep ends: the depth is
    the same, yet the new record was never tried.  The wait sweeps again
    (judged by depth alone, it returned with the record queued)."""
    with Cluster(tiny_config()) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            for v in (0, 1):
                engine.checkpoint(v, make_buffer(ctx, CKPT, seed=v))
            engine.wait_for_flushes(timeout=600.0)
            first, second = (engine.catalog.get(v) for v in (0, 1))
            for record in (first, second):
                engine.ssd.delete(engine.store_key(record))  # on the PFS only
            flusher = engine.flusher
            flusher.queue_backfill(first)
            drain = flusher._drain_backfill

            def drain_then_a_reroute_lands():
                drain()
                del flusher._drain_backfill  # once
                flusher.queue_backfill(second)

            flusher._drain_backfill = drain_then_a_reroute_lands
            assert engine.wait_for_flushes(timeout=600.0)
            assert flusher.backfill_depth == 0 and flusher.backfilled == 2
            assert all(engine.ssd.contains(engine.store_key(r)) for r in (first, second))
            assert_nothing_left(engine)


@pytest.mark.parametrize("point", ["claim", "chunk", "commit"])
@pytest.mark.parametrize("source", ["ssd", "pfs"])
def test_repair_copy_failure_is_counted_and_retried_next_round(point, source):
    from tests.test_cluster_chaos import chaos_config, make_topology, submit_all

    with make_topology(chaos_config(num_nodes=4)) as topo:
        sessions, _sums = submit_all(topo, count=1)
        key = (sessions[0].engine.process_id, 0)
        fabric = topo.fabric
        holders = fabric.directory.holders(key)
        for node in holders if source == "pfs" else holders[:1]:
            fabric.membership.crash(node, "fail-stop")
        repairer = fabric.repairer
        ((_key, live),) = [work for work in repairer.pending() if work[0] == key]
        target = next(
            node for node in repairer._desired_holders(key)
            if node not in fabric.directory.holders(key)
        )
        target_ssd = topo.cluster.nodes[target].ssd
        obj, name, exc = {
            "claim": (target_ssd, "open_put", OUTAGE),
            "chunk": (target_ssd.write_link, "transfer", LINK_FAULT),
            "commit": (target_ssd, "_commit_blob", COMMIT_FAULT),
        }[point]
        with failing(obj, name, exc):
            assert repairer._copy(key, live, target) is False
        registry = topo.telemetry.registry.snapshot()
        assert registry["cluster.repair.failures"] == 1
        assert not target_ssd.contains(key) and repairer.repaired == 0
        repairer.run()  # nothing was left half-done: the next round repairs
        assert len(fabric.directory.holders(key)) == 2 and not repairer.pending()


# -- the promotions ----------------------------------------------------------------

def _staged(engine, ctx, level):
    """Checkpoint 0 durable and cached no faster than ``level``."""
    buf = make_buffer(ctx, CKPT, seed=5)
    engine.checkpoint(0, buf)
    engine.wait_for_flushes(timeout=600.0)
    record = engine.catalog.get(0)
    engine.gpu_cache.evict(record)
    if level > TierLevel.HOST:
        engine.host_cache.evict(record)
    assert record.fastest_cached_level() == (level if level <= TierLevel.HOST else None)
    return record, buf.checksum()


@contextmanager
def _promotion(hop, stream):
    """``(engine, record, checksum, drive)``: checkpoint 0 durable and cached
    no faster than the hop's source, on the engine that promotes it; ``drive``
    is the SSD the read comes off — for ``peer`` a neighbour's, the promoting
    engine (of a node holding no copy) having adopted the record."""
    gpudirect, src, _dst, _lands = PROMOTIONS[hop]
    if hop != "peer":
        with Cluster(tiny_config(stream=stream)) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, gpudirect=gpudirect) as engine:
                yield (engine, *_staged(engine, ctx, src), engine.ssd)
        return
    cfg = tiny_config(stream=stream, num_nodes=3, cluster=ClusterConfig(enabled=True))
    with ClusterTopology(cfg) as topo:  # no PFS copy: a failed leg has no failover
        home, engine = topo.engines[0], topo.engines[2]
        _record, checksum = _staged(home, home.context, src)
        topo.engines[1].wait_for_flushes(timeout=600.0)
        record = engine.adopt_foreign(home.process_id, 0)
        yield engine, record, checksum, topo.cluster.nodes[0].ssd


#: hop -> (gpudirect, src, dst, the extents a success lands)
PROMOTIONS = {
    "host-gpu": (False, TierLevel.HOST, TierLevel.GPU, {TierLevel.GPU}),
    "store-host": (False, TierLevel.SSD, TierLevel.HOST, {TierLevel.HOST}),
    "store-gpu": (True, TierLevel.SSD, TierLevel.GPU, {TierLevel.GPU}),
    "fused": (False, TierLevel.SSD, TierLevel.HOST, {TierLevel.GPU, TierLevel.HOST}),
    # read (drive and fabric at once) → h2d: always chunks, whatever ``stream`` says
    "peer": (False, TierLevel.SSD, TierLevel.HOST, {TierLevel.GPU, TierLevel.HOST}),
}

PROMOTION_CELLS = [
    pytest.param(hop, point, how, stream, id=f"{hop}-{point}-{how}-{plan}")
    for hop in PROMOTIONS
    for point, how in (
        ("claim", "refused"), ("claim", "outage"), ("chunk", "read-fault"),
        ("chunk", "hop-fault"), ("chunk", "h2d-fault"), ("commit", "fault"),
    )
    for plan, stream in (("one-chunk", StreamConfig()), ("streamed", StreamConfig(enabled=True)))
    # A host source opens no store and reads no link; a lone host landing
    # crosses no PCIe; one chunk never fuses (nothing to overlap); only a
    # peer's bytes cross the fabric.
    if not (hop == "host-gpu" and how in ("outage", "read-fault"))
    and not (hop == "store-host" and how == "h2d-fault")
    and not (hop == "fused" and plan == "one-chunk")
    and not (hop != "peer" and how == "hop-fault")
]


@pytest.mark.parametrize("hop,point,how,stream", PROMOTION_CELLS)
def test_promotion_failure_leaves_nothing_behind(hop, point, how, stream):
    _gpudirect, src, dst, lands = PROMOTIONS[hop]
    chunk = 3 if hop == "peer" or (stream.enabled and hop in ("store-gpu", "fused")) else 0
    with _promotion(hop, stream) as (engine, record, expected, drive):
        claim = dict(blocking=True, allow_pinned=True)
        kept = set()  # extents the failed promotion is still right to land
        if how == "refused":
            claim = dict(blocking=False, budget_fraction=0.0)
            obj, name, exc, at = engine, "store_key", None, 10**9  # nothing injected
        elif how == "outage":
            obj, name, exc, at = drive, "open_get", OUTAGE, 0
        elif how == "read-fault":
            obj, name, exc, at = drive.read_link, "transfer", LINK_FAULT, chunk
        elif how == "hop-fault":  # drawn on the fabric, crossed alongside the drive
            fabric = engine.fabric.cluster.internode_link(engine.node_id, 0)
            obj, name, exc, at = fabric, None, None, chunk
        elif how == "h2d-fault":
            obj, name, exc, at = engine.device.h2d_link, "transfer", LINK_FAULT, chunk
        else:
            cache = engine.gpu_cache if TierLevel.GPU in lands else engine.host_cache
            obj, name, exc, at = cache, "write_payload", COMMIT_FAULT, 0
        if len(lands) == 2 and obj in (engine.device.h2d_link, engine.gpu_cache):
            # Only the GPU half failed: the host copy lands, as if the
            # first of two hops had.
            kept = {TierLevel.HOST}
        with faulting(obj, at) if name is None else failing(obj, name, exc, at=at):
            if how == "refused":
                assert engine.promote_once(record, src, dst, **claim) is None
            else:
                with pytest.raises(TransferError):
                    engine.promote_once(record, src, dst, **claim)
        cached = {level for level, inst in record.instances.items() if inst.has_copy}
        before = {TierLevel.HOST} if src == TierLevel.HOST else set()
        assert cached == before | kept
        assert_nothing_left(engine)
        assert engine.gpu_cache.contains(record) == (TierLevel.GPU in cached)
        assert engine.host_cache.contains(record) == (TierLevel.HOST in cached)
        for leg in engine.promote_legs[dst]:  # every stage worker settled
            assert leg.stream is None or leg.stream.depth == 0
        # The same promotion, unharmed, lands every extent it was after.
        if TierLevel.HOST in kept:
            src, dst = TierLevel.HOST, TierLevel.GPU
        assert engine.promote_once(record, src, dst, blocking=True, allow_pinned=True) >= 0.0
        cached = {level for level, inst in record.instances.items() if inst.has_copy}
        assert cached >= lands
        out = engine.device.alloc_buffer(CKPT)
        engine.restore(0, out)
        assert out.checksum() == expected
        assert_nothing_left(engine)
