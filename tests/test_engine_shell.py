"""The engine shell: lifecycle observers, the two epilogues, the paths
register, feature combos.

``ScoreEngine.landed`` / ``ScoreEngine.dropped`` are the only places a copy
comes into or goes out of existence, and the optional features (reduction,
prediction, SLO) hear about it as registered observers.
These tests record what an extra observer sees on an all-features-on engine
across the scenarios that used to spell the epilogue out by hand.  The
features that pick a path (QoS scheduling, the fabric) instead contribute
rows to tables built once in ``_build_features``: one flag on must build
the base tables — self-healing armed — plus exactly that feature's rows.  And the
feature combinations — all on, and an all-pairs covering set — restore the
same bytes as the all-off engine.
"""

import threading
from itertools import combinations

import pytest

from repro.config import (
    AnalysisConfig,
    ClusterConfig,
    FaultConfig,
    PredictConfig,
    ReduceConfig,
    SchedConfig,
    StreamConfig,
)
from repro.core.engine import HOOKS, ScoreEngine
from repro.core.validator import validate_engine
from repro.faults.health import BREAKER_RESET_S
from repro.sched.request import TransferClass
from repro.tiers.base import TierLevel
from repro.tiers.topology import Cluster
from repro.util.units import MiB
from tests.conftest import FaultClock, make_buffer, quiesce, tamper_blob, tiny_config

CKPT = 128 * MiB

ALL_ON = dict(
    telemetry=True,
    reduce=ReduceConfig(enabled=True),
    predict=PredictConfig(enabled=True),
    analysis=AnalysisConfig(enabled=True),
)


class Tape:
    """A lifecycle observer that writes down every hook call."""

    def __init__(self):
        self.calls = []  # (hook, ckpt_id, where-name | None)

    def __getattr__(self, name):
        if name not in HOOKS:
            raise AttributeError(name)

        def hook(record, *args):
            where = args[0] if args and hasattr(args[0], "level") else None
            self.calls.append((name, record.ckpt_id, _name(where)))

        return hook

    def count(self, hook, where=None):
        return sum(1 for h, _c, w in self.calls if h == hook and where in (None, w))

    def seen(self, hook, ckpt_id):
        return [w for h, c, w in self.calls if h == hook and c == ckpt_id]


def _name(where):
    if where is None:
        return None
    return getattr(where, "track", None) or where.name


def _settle(engine):
    engine.wait_for_flushes(timeout=600.0)
    quiesce(engine)
    validate_engine(engine)


def _check_pairing(tape, never_landed=()):
    """Every ``on_landed`` on a level is matched by at most one later
    ``on_dropped`` on it; a drop with no landing before it is the release
    of a reservation that never landed (``never_landed`` names those)."""
    live = set()
    for hook, ckpt_id, where in tape.calls:
        if hook == "on_landed":
            live.add((ckpt_id, where))
        elif hook == "on_dropped":
            assert (ckpt_id, where) in live or ckpt_id in never_landed, (
                f"second drop of checkpoint {ckpt_id} on {where} without a landing between"
            )
            live.discard((ckpt_id, where))


@pytest.mark.parametrize("reduce", [True, False], ids=["reduce", "no-reduce"])
def test_observers_see_every_landing_and_drop_once(reduce):
    # Reduced blobs are placeholders (the bytes live in the chunk recipe), so
    # rot in one is invisible to a restore: the repair scenario needs the run
    # without reduction, the chunk-refcount invariant the run with it.
    cfg = tiny_config(
        faults=FaultConfig(tier_outages=(("ssd", 1000.0, 2000.0, 0.0),)),
        **dict(ALL_ON, reduce=ReduceConfig(enabled=reduce)),
    )
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        fault_clock = cluster.faults.clock = FaultClock(0.0)
        sums = {}

        def checkpoint(engine, v):
            buf = make_buffer(ctx, CKPT, seed=v)
            sums[v] = buf.checksum()
            engine.checkpoint(v, buf)

        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            assert engine.predict and engine.slo and bool(engine.reducer) == reduce
            tape = Tape()
            engine.observe(tape)
            ssd, pfs = engine.ssd.track, engine.pfs.track

            # 1. A normal flush to the PFS: one landing per level.
            checkpoint(engine, 0)
            _settle(engine)
            assert tape.seen("on_created", 0) == [None]
            assert tape.seen("on_landed", 0) == ["p0-gpu", "p0-host", ssd, pfs]
            assert tape.seen("after_landed", 0) == [ssd, pfs]

            # 2. The SSD goes dark: the durable hop reroutes to the PFS; once
            # it is back (and the breaker has cooled) the backfill lands the
            # SSD copy.
            fault_clock.t = 1500.0
            checkpoint(engine, 1)
            _settle(engine)
            assert tape.seen("after_landed", 1) == [pfs]
            assert engine.flusher.rerouted >= 1
            fault_clock.t = 3000.0
            engine.clock.sleep(BREAKER_RESET_S + 1.0)
            _settle(engine)
            assert tape.seen("after_landed", 1) == [pfs, ssd]
            assert engine.flusher.backfilled == 1

            # 3. The SSD blob of checkpoint 0 rots at rest; with the cache
            # copies gone the restore reads it, scrubs it, and heals the SSD
            # from the PFS.
            record = engine.catalog.get(0)
            engine.gpu_cache.evict(record)
            engine.host_cache.evict(record)
            if not reduce:
                tamper_blob(engine.ssd, engine.store_key(record))
            out = ctx.device.alloc_buffer(CKPT)
            engine.restore(0, out)
            assert out.checksum() == sums[0]
            _settle(engine)
            repairs = 0 if reduce else 1
            assert tape.seen("on_dropped", 0).count(ssd) == repairs
            assert tape.seen("after_landed", 0) == [ssd, pfs] + [ssd] * repairs
            assert tape.seen("on_consumed", 0) == [None]
            assert tape.seen("after_restored", 0) == [None]

            # 4. A checkpoint() that fails is rolled back: its reservation is
            # released and the record forgotten.
            write = engine.gpu_cache.write_payload

            def boom(record, payload):
                engine.gpu_cache.write_payload = write
                raise RuntimeError("injected cache-write failure")

            engine.gpu_cache.write_payload = boom
            with pytest.raises(RuntimeError):
                engine.checkpoint(2, make_buffer(ctx, CKPT, seed=2))
            assert tape.seen("on_forgotten", 2) == [None]
            assert tape.seen("on_landed", 2) == []
            assert tape.seen("on_dropped", 2) == ["p0-gpu"]
            _settle(engine)

            _check_pairing(tape, never_landed={2})

        # 5. A fresh incarnation recovers the catalog: the blobs it finds are
        # announced to the monitor-held observers (chunk accounting must
        # mirror them) and nothing lands again.
        with ScoreEngine(ctx, flush_to_pfs=True) as engine2:
            tape2 = Tape()
            engine2.observe(tape2)
            assert engine2.recover_history() == 2
            for v in (0, 1):
                assert set(tape2.seen("on_landed", v)) == {ssd, pfs}
            assert engine2.catalog.get(0).consumed is False  # a new life
            assert tape2.count("after_landed") == 0
            validate_engine(engine2)
            engine2.restore(1, out)
            assert out.checksum() == sums[1]
            _settle(engine2)
            _check_pairing(tape2)


def test_with_no_feature_on_nobody_listens(engine):
    assert all(hooks == () for hooks in engine._hooks.values())
    assert engine.gpu_cache.on_evict is None and engine.host_cache.on_evict is None


def test_rollback_release_failure_is_counted():
    """The one exception the engine swallows: the GPU slot release of a
    checkpoint() that is already failing.  It is counted and traced, and
    the original exception is still the one raised."""
    with Cluster(tiny_config(telemetry=True)) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx) as engine:

            def fail_write(record, payload):
                raise RuntimeError("injected cache-write failure")

            def fail_release(record):
                raise KeyError("injected release failure")

            engine.gpu_cache.write_payload = fail_write
            engine.gpu_cache.release = fail_release
            with pytest.raises(RuntimeError, match="cache-write"):
                engine.checkpoint(0, make_buffer(ctx, CKPT, seed=0))
            assert not engine.catalog.contains(0)
            registry = cluster.telemetry.registry
            assert registry.counter("engine.swallowed_errors").value == 1
            names = [event.name for event in cluster.telemetry.bus.snapshot()]
            assert "checkpoint-rollback-error" in names
            del engine.gpu_cache.release  # close() drains through the real one


def _run_shot(cfg, snapshots=16):
    """Seeded shot on one engine: write, hint the reverse order, restore;
    returns the restored checksums by version."""
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            written = {}
            for v in range(snapshots):
                buf = make_buffer(ctx, CKPT, seed=v)
                written[v] = buf.checksum()
                engine.checkpoint(v, buf)
            engine.wait_for_flushes(timeout=600.0)
            order = list(reversed(range(snapshots)))
            for v in order:
                engine.prefetch_enqueue(v)
            engine.prefetch_start()
            out = ctx.device.alloc_buffer(CKPT)
            restored = {}
            for v in order:
                engine.restore(v, out)
                restored[v] = out.checksum()
            _settle(engine)
            assert engine.catalog.get(0).durable_level is TierLevel.PFS
    return written, restored


def test_all_features_on_restores_what_all_off_restores():
    """stream × sched × reduce × predict × analysis, all at
    once, against none of them: the same seeded 16-snapshot shot must hand
    back checksum-identical payloads."""
    written_off, restored_off = _run_shot(tiny_config())
    written_on, restored_on = _run_shot(
        tiny_config(
            stream=StreamConfig(enabled=True), sched=SchedConfig(enabled=True), **ALL_ON
        )
    )
    assert written_on == written_off
    assert restored_off == written_off
    assert restored_on == restored_off


# -- the paths register ------------------------------------------------------------

#: one feature's switch: the config changes that turn it on.  The order
#: decides which pairwise runs each feature is on in, and so the case ids.
FEATURES = {
    "stream": dict(stream=StreamConfig(enabled=True)),
    "sched": dict(sched=SchedConfig(enabled=True)),
    "analysis": dict(telemetry=True, analysis=AnalysisConfig(enabled=True)),
    "cluster": dict(num_nodes=2, cluster=ClusterConfig(enabled=True, replica_factor=2)),
    "reduce": dict(reduce=ReduceConfig(enabled=True)),
    "predict": dict(predict=PredictConfig(enabled=True)),
}


def _config(*names):
    changes = {}
    for name in names:
        changes.update(FEATURES[name])
    return tiny_config(**changes)


def _tables(engine):
    """The tables ``_build_features`` lays out, by row name, in order."""
    flusher = engine.flusher
    return {
        "cascade": [leg.stage for leg in flusher.cascade],
        "streams": list(flusher.streams),  # the rows that run: ``repl`` too
        "policy": {getattr(leg.policy, "__name__", None) for leg in flusher.legs.values()},
        "sinks": list(flusher.durable_sinks),
        "pfs_put": engine.pfs_put.func.__qualname__,
        "read": [link.__name__ for link in engine.read_chain],
        "tagged": engine.sched.request(TransferClass.DEMAND_READ, engine.process_id) is not None,
        "stats": [key for key, _fragment in engine.stats_fragments],
        "stall": [fragment.__qualname__ for fragment in engine.stall_fragments],
    }


BASE = {
    "cascade": ["d2h", "h2f", "f2r", "f2p"],
    "streams": ["d2h", "h2f", "f2r", "f2p"],
    "policy": {"retrying"},  # every flush leg retries and feeds its breaker
    "sinks": ["ssd", "pfs"],  # the reroute around a dark SSD
    "pfs_put": "ObjectStore.put",
    "read": ["_usable_ssd", "_pfs_copy"],  # the health gate
    "tagged": False,
    "stats": [],
    "stall": [],
}

#: what one feature adds to (or, for a chain link, puts in place in) BASE.
ROWS = {
    "sched": {
        "tagged": True,
        "stall": ["SchedContext.stall_report"],
    },
    "cluster": {
        "streams": ["d2h", "h2f", "repl", "f2r", "f2p"],
        "pfs_put": "ClusterFabric.pfs_put",
        "read": ["_usable_ssd", "_peer_copy", "_pfs_copy"],
    },
    "reduce": {"stats": ["reduction"]},
    "predict": {"stats": ["prediction"]},
    "analysis": {},
}


@pytest.mark.parametrize("feature", [None, *ROWS], ids=lambda feature: feature or "base")
def test_one_flag_builds_the_base_tables_plus_its_rows(feature):
    """A feature combination is a union of rows: built with one flag on,
    the tables are the base tables plus exactly that feature's rows, by
    names and order — so nothing outside ``_build_features`` has to ask
    which feature is on."""
    with Cluster(_config(*[feature] if feature else [])) as cluster:
        with ScoreEngine(cluster.process_contexts()[0], flush_to_pfs=True) as engine:
            assert _tables(engine) == {**BASE, **ROWS.get(feature, {})}
            assert (engine.fabric is None) == (feature != "cluster")
            # A peer read is one leg on the promoting thread: no engine
            # starts a stream of its own for the fabric.
            assert not [t.name for t in threading.enumerate() if "promote-peer" in t.name]


def test_an_ssd_outage_reroutes_to_the_pfs_and_backfills_once_it_closes():
    """Under the default config a dark SSD is routed around: the durable hop
    lands on the PFS, and once the window closes and the breaker's cool-down
    has passed, the next drain copies the checkpoint back onto the SSD."""
    cfg = tiny_config(faults=FaultConfig(tier_outages=(("ssd", 0.0, 1000.0, 0.0),)))
    with Cluster(cfg) as cluster:
        cluster.faults.clock = FaultClock(0.0)
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            buf = make_buffer(ctx, CKPT, seed=0)
            engine.checkpoint(0, buf)
            engine.wait_for_flushes(timeout=600.0)
            record = engine.catalog.get(0)
            key = engine.store_key(record)
            assert record.durable_level is TierLevel.PFS and not engine.ssd.contains(key)
            assert engine.flusher.rerouted == 1 and engine.flusher.abandoned == 0
            assert engine.flusher.backfill_depth == 1
            cluster.faults.clock = FaultClock(2000.0)  # the window has closed
            engine.clock.sleep(BREAKER_RESET_S)
            engine.wait_for_flushes(timeout=600.0)
            assert engine.ssd.contains(key) and engine.flusher.backfilled == 1
            assert engine.flusher.backfill_depth == 0
            out = ctx.device.alloc_buffer(CKPT)
            engine.restore(0, out)
            assert out.checksum() == buf.checksum()
            validate_engine(engine)


# -- feature combinations ----------------------------------------------------------

def _pairwise_rows(names):
    """Six runs covering every pair of ``names`` (up to ten) in all four on/off
    combinations: feature *i* is on in the runs its column names — a distinct
    3-subset of runs 1–5, so two columns share one or two runs.  Run 0 is
    all-off."""
    columns = dict(zip(names, combinations(range(1, 6), 3)))
    return [{name for name in names if run in columns[name]} for run in range(6)]


PAIRWISE = _pairwise_rows(FEATURES)


def test_pairwise_rows_cover_every_pair():
    assert PAIRWISE[0] == set()
    for a, b in combinations(FEATURES, 2):
        seen = {(a in row, b in row) for row in PAIRWISE}
        assert seen == {(False, False), (False, True), (True, False), (True, True)}, (a, b)


@pytest.fixture(scope="module")
def all_off_shot():
    return _run_shot(tiny_config())


@pytest.mark.parametrize(
    "features", PAIRWISE[1:], ids=["+".join(sorted(row)) for row in PAIRWISE[1:]]
)
def test_pairwise_feature_matrix_restores_what_all_off_restores(features, all_off_shot):
    """Every pair of stream × sched × reduce × predict × analysis × cluster (two nodes, a replica ring) runs on together in one of
    five shots; each must restore checksum-identical payloads to the all-off
    shot and end with ``validate_engine`` clean."""
    written_off, restored_off = all_off_shot
    written, restored = _run_shot(_config(*sorted(features)))
    assert written == written_off
    assert restored == restored_off == written_off
