"""Object stores (SSD/PFS) and cluster topology wiring."""

import threading

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.cluster.fabric import PeerSsdStore
from repro.config import ClusterConfig, FaultConfig, HardwareSpec, ResilienceConfig, ScaleModel
from repro.errors import CheckpointNotFound, ConfigError, TierOfflineError
from repro.faults.injector import FaultDomain
from repro.simgpu.bandwidth import Link
from repro.tiers.base import TierLevel
from repro.tiers.pfs import PfsStore
from repro.tiers.ssd import SsdStore
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import KiB, MiB
from tests.conftest import FaultClock, tiny_config

SCALE = ScaleModel(data_scale=64 * KiB, alignment=64 * KiB, time_scale=0.002)


def _clock():
    return VirtualClock(time_scale=0.002)


def _payload(nominal):
    return make_rng(2, "store").integers(0, 256, SCALE.payload_bytes(nominal), dtype=np.uint8)


class TestTierLevel:
    def test_ordering(self):
        assert TierLevel.GPU < TierLevel.HOST < TierLevel.SSD < TierLevel.PFS

    def test_slower_faster(self):
        assert TierLevel.GPU.slower == TierLevel.HOST
        assert TierLevel.PFS.slower is None
        assert TierLevel.GPU.faster is None
        assert TierLevel.HOST.faster == TierLevel.GPU


class TestSsdStore:
    @pytest.fixture(params=["memory", "file"])
    def store(self, request, tmp_path):
        directory = str(tmp_path / "ssd") if request.param == "file" else None
        return SsdStore(0, HardwareSpec(), SCALE, _clock(), directory=directory)

    def test_put_get_roundtrip(self, store):
        data = _payload(1 * MiB)
        seconds = store.put((0, 1), data, 1 * MiB)
        assert seconds > 0
        out, read_seconds = store.get((0, 1))
        assert np.array_equal(out[: data.size], data)
        assert read_seconds > 0

    def test_contains(self, store):
        assert not store.contains((0, 1))
        store.put((0, 1), _payload(1 * MiB), 1 * MiB)
        assert store.contains((0, 1))

    def test_missing_get_raises(self, store):
        with pytest.raises(CheckpointNotFound):
            store.get((9, 9))

    def test_delete(self, store):
        store.put((0, 1), _payload(1 * MiB), 1 * MiB)
        store.delete((0, 1))
        assert not store.contains((0, 1))
        with pytest.raises(CheckpointNotFound):
            store.get((0, 1))

    def test_delete_missing_is_noop(self, store):
        store.delete((5, 5))

    def test_stored_bytes_and_count(self, store):
        store.put((0, 1), _payload(1 * MiB), 1 * MiB)
        store.put((0, 2), _payload(2 * MiB), 2 * MiB)
        assert store.stored_bytes() == 3 * MiB
        assert store.object_count() == 2

    def test_overwrite_replaces(self, store):
        store.put((0, 1), _payload(1 * MiB), 1 * MiB)
        data2 = make_rng(3, "other").integers(0, 256, SCALE.payload_bytes(1 * MiB), dtype=np.uint8)
        store.put((0, 1), data2, 1 * MiB)
        out, _ = store.get((0, 1))
        assert np.array_equal(out[: data2.size], data2)
        assert store.object_count() == 1


class TestPfsStore:
    def test_roundtrip_and_node_links(self):
        store = PfsStore(HardwareSpec(), SCALE, _clock())
        data = _payload(1 * MiB)
        store.put((0, 1), data, 1 * MiB, node_id=1)
        out, _ = store.get((0, 1), node_id=0)
        assert np.array_equal(out[: data.size], data)

    def test_node_links_cached(self):
        store = PfsStore(HardwareSpec(), SCALE, _clock())
        w1, r1 = store.node_links(0)
        w2, r2 = store.node_links(0)
        assert w1 is w2 and r1 is r2

    def test_missing_raises(self):
        store = PfsStore(HardwareSpec(), SCALE, _clock())
        with pytest.raises(CheckpointNotFound):
            store.get((1, 2))

    @pytest.mark.parametrize("op", ["put", "put_batch"])
    def test_a_write_costs_the_nodes_share_not_the_sum(self, op):
        """Cut-through: a written chunk crosses the node's share and the
        aggregate at once, so a lone 64 MiB write accounts the share's
        latency and bytes alone (31.75 ms), not the aggregate's 15.6 ms on
        top."""
        spec = HardwareSpec()
        store = PfsStore(spec, SCALE, _clock())
        data = _payload(64 * MiB)
        if op == "put":
            seconds = store.put(KEY, data, 64 * MiB)
        else:
            seconds = store.put_batch([(KEY, data, 64 * MiB, {})])
        ((node, aggregate),) = store.route(0, True)
        assert seconds == spec.pfs_latency + 64 * MiB / spec.pfs_write_bandwidth
        assert node.busy_time == 64 * MiB / spec.pfs_write_bandwidth
        assert aggregate.busy_time == pytest.approx(64 * MiB / aggregate.bandwidth)
        assert node.bytes_moved == aggregate.bytes_moved == 64 * MiB
        assert node.pending_bytes == aggregate.pending_bytes == 0

    def test_a_read_crosses_the_share_then_the_aggregate(self):
        spec = HardwareSpec()
        store = PfsStore(spec, SCALE, _clock())
        store.put(KEY, _payload(64 * MiB), 64 * MiB)
        seconds = store.get(KEY)[1]
        (node, _), (aggregate, _) = store.route(0, False)
        share = spec.pfs_latency + 64 * MiB / spec.pfs_read_bandwidth
        assert seconds == share + 64 * MiB / aggregate.bandwidth  # 47.375 ms
        assert node.bytes_moved == aggregate.bytes_moved == 64 * MiB

    def test_the_aggregate_caps_concurrent_nodes(self):
        """Four nodes writing at once share the aggregate (two node shares):
        the puts queue on its calendar, so the last lands after ~twice a
        lone put's time — and the first still at the node's pace."""
        spec = HardwareSpec()
        clock = VirtualClock(time_scale=0.2)
        store = PfsStore(spec, SCALE, clock)
        barrier = threading.Barrier(4)
        seconds = []

        def put(node_id):
            barrier.wait()
            seconds.append(store.put((node_id, 0), _payload(64 * MiB), 64 * MiB, node_id=node_id))

        threads = [threading.Thread(target=put, args=(node_id,)) for node_id in range(4)]
        started = clock.now()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        elapsed = clock.now() - started
        alone = spec.pfs_latency + 64 * MiB / spec.pfs_write_bandwidth
        assert min(seconds) == pytest.approx(alone, rel=0.05)
        aggregate = store.global_write_link
        assert 0.95 * 4 * 64 * MiB / aggregate.bandwidth <= elapsed < 4 * alone
        assert aggregate.bytes_moved == 4 * 64 * MiB


class TestTopology:
    def test_processes_per_node_default(self):
        with Cluster(tiny_config(processes_per_node=None)) as c:
            assert len(c.process_contexts()) == 8

    def test_two_nodes(self):
        with Cluster(tiny_config(num_nodes=2, processes_per_node=2)) as c:
            ctxs = c.process_contexts()
            assert len(ctxs) == 4
            assert ctxs[0].node.node_id == 0
            assert ctxs[2].node.node_id == 1
            # process ids follow node * gpus_per_node + local rank
            assert ctxs[2].process_id == 8

    def test_pcie_link_shared_by_pairs(self):
        with Cluster(tiny_config(processes_per_node=8)) as c:
            devices = c.nodes[0].devices
            assert devices[0].d2h_link is devices[1].d2h_link
            assert devices[0].d2h_link is not devices[2].d2h_link
            assert devices[2].h2d_link is devices[3].h2d_link

    def test_ssd_shared_within_node(self):
        with Cluster(tiny_config(num_nodes=2, processes_per_node=2)) as c:
            ctxs = c.process_contexts()
            assert ctxs[0].ssd is ctxs[1].ssd
            assert ctxs[0].ssd is not ctxs[2].ssd

    def test_pfs_shared_across_nodes(self):
        with Cluster(tiny_config(num_nodes=2, processes_per_node=1)) as c:
            ctxs = c.process_contexts()
            assert ctxs[0].pfs is ctxs[1].pfs

    def test_arenas_cached_per_context(self):
        with Cluster(tiny_config()) as c:
            ctx = c.process_contexts()[0]
            assert ctx.gpu_cache_arena() is ctx.gpu_cache_arena()
            assert ctx.host_cache_arena() is ctx.host_cache_arena()

    def test_bad_local_rank_rejected(self):
        with Cluster(tiny_config()) as c:
            with pytest.raises(ConfigError):
                c.nodes[0].process_context(99)

    def test_host_usable_capacity_without_costs(self):
        with Cluster(tiny_config(charge_allocation_cost=False)) as c:
            ctx = c.process_contexts()[0]
            arena = ctx.host_cache_arena()
            assert ctx.host_usable_capacity() == arena.nominal_capacity

    def test_host_usable_capacity_grows_lazily(self):
        cfg = tiny_config(charge_allocation_cost=True, lazy_host_pinning=True)
        with Cluster(cfg) as c:
            ctx = c.process_contexts()[0]
            arena = ctx.host_cache_arena()
            early = ctx.host_usable_capacity()
            assert early < arena.nominal_capacity
            # 2 GiB at 4 GiB/s pins fully in 0.5 nominal seconds.
            c.clock.sleep(1.0)
            assert ctx.host_usable_capacity() == arena.nominal_capacity

    def test_eager_pinning_charges_up_front(self):
        cfg = tiny_config(charge_allocation_cost=True, lazy_host_pinning=False)
        with Cluster(cfg) as c:
            ctx = c.process_contexts()[0]
            before = c.clock.now()
            ctx.host_cache_arena()
            elapsed = c.clock.now() - before
            # 2 GiB at 4 GiB/s = 0.5 nominal seconds, paid synchronously.
            assert elapsed >= 0.4
            assert ctx.host_usable_capacity() == ctx.host_cache_arena().nominal_capacity

    def test_cluster_close_idempotent(self):
        c = Cluster(tiny_config())
        c.close()
        c.close()

    def test_ssd_directory_backend(self, tmp_path):
        cfg = tiny_config(ssd_directory=str(tmp_path))
        with Cluster(cfg) as c:
            ctx = c.process_contexts()[0]
            data = _payload(1 * MiB)
            ctx.ssd.put((0, 0), data, 1 * MiB)
            out, _ = ctx.ssd.get((0, 0))
            assert np.array_equal(out[: data.size], data)


class TestInternodeFabric:
    def test_link_shared_and_symmetric(self):
        with Cluster(tiny_config(num_nodes=3, processes_per_node=1)) as c:
            link = c.internode_link(0, 1)
            assert link is c.internode_link(1, 0)
            assert link is not c.internode_link(0, 2)

    def test_self_link_rejected(self):
        with Cluster(tiny_config(num_nodes=2, processes_per_node=1)) as c:
            with pytest.raises(ConfigError):
                c.internode_link(1, 1)

    def test_bandwidth_from_spec(self):
        cfg = tiny_config(num_nodes=2, processes_per_node=1)
        with Cluster(cfg) as c:
            link = c.internode_link(0, 1)
            assert link.bandwidth == pytest.approx(cfg.hardware.internode_bandwidth)


class TestStoreMetadata:
    def test_meta_roundtrip(self, tmp_path):
        store = SsdStore(0, HardwareSpec(), SCALE, _clock())
        store.put((3, 7), _payload(1 * MiB), 1 * MiB, meta={"checksum": 42, "true_size": 999})
        assert store.meta((3, 7)) == {"checksum": 42, "true_size": 999}
        assert store.size_of((3, 7)) == 1 * MiB

    def test_meta_missing_key_raises(self):
        store = SsdStore(0, HardwareSpec(), SCALE, _clock())
        with pytest.raises(CheckpointNotFound):
            store.meta((1, 1))

    def test_keys_for_process(self):
        store = SsdStore(0, HardwareSpec(), SCALE, _clock())
        for key in ((0, 2), (0, 1), (1, 5)):
            store.put(key, _payload(1 * MiB), 1 * MiB)
        assert store.keys_for_process(0) == [(0, 1), (0, 2)]
        assert store.keys_for_process(1) == [(1, 5)]
        assert store.keys_for_process(9) == []

    def test_file_backend_reindexes_on_restart(self, tmp_path):
        directory = str(tmp_path / "ssd")
        store = SsdStore(0, HardwareSpec(), SCALE, _clock(), directory=directory)
        store.put((0, 3), _payload(1 * MiB), 1 * MiB, meta={"checksum": 7})
        # A new store over the same directory (simulated restart):
        reborn = SsdStore(0, HardwareSpec(), SCALE, _clock(), directory=directory)
        assert reborn.contains((0, 3))
        assert reborn.meta((0, 3))["checksum"] == 7
        out, _ = reborn.get((0, 3))
        assert out.size > 0


# -- the store contract --------------------------------------------------------
# One durable store (``repro.tiers.base.ObjectStore``) behind every kind: the
# same handle protocol, counters and fault gates whichever route it charges.

KEY = (0, 1)
WRITABLE = ["ssd-memory", "ssd-file", "pfs"]


def _faults(**config):
    return FaultDomain(FaultConfig(enabled=True, **config), ResilienceConfig(), FaultClock())


def _make_store(kind, tmp_path, faults=None):
    if kind == "pfs":
        return PfsStore(HardwareSpec(), SCALE, _clock(), faults=faults)
    directory = str(tmp_path / "ssd") if kind == "ssd-file" else None
    return SsdStore(0, HardwareSpec(), SCALE, _clock(), directory=directory, faults=faults)


def _counter(store, name):
    return store.telemetry.registry.counter(f"tier.{store.tier}.{name}").value


def _links(route):
    """Every link a route's legs cross, in order."""
    return [link for leg in route for link in leg if link is not None]


@pytest.fixture
def charges(monkeypatch):
    """Replace ``Link.transfer`` by its uncontended nominal duration and
    record ``(link name, bytes)`` per link it crosses: accounted seconds
    become exact (the real figure adds the measured wait for the link's
    mutex).  A link crossed alongside another costs only when it is the
    slower of the two."""
    calls = []

    def transfer(link, nbytes, cancelled=None, request=None, alongside=None):
        crossed = (link,) if alongside is None else (link, alongside)
        calls.extend((each.name, nbytes) for each in crossed)
        return max(each.estimate(nbytes, include_pending=False) for each in crossed)

    monkeypatch.setattr(Link, "transfer", transfer)
    return calls


@pytest.fixture(params=WRITABLE)
def store(request, tmp_path):
    return _make_store(request.param, tmp_path)


@pytest.fixture(params=WRITABLE + ["peer"])
def view(request, tmp_path):
    """``(reader, sink)``: the store reads go through and the store that
    holds the bytes — the same object, except for the read-only peer view
    of a neighbour node's SSD."""
    if request.param != "peer":
        sink = _make_store(request.param, tmp_path)
        yield sink, sink
        return
    cfg = tiny_config(num_nodes=2, cluster=ClusterConfig(enabled=True))
    with Cluster(cfg) as cluster:
        sink = cluster.nodes[0].ssd
        yield PeerSsdStore(cluster.fabric, 1, 0, sink), sink


class TestPutContract:
    def test_uncommitted_and_aborted_puts_are_invisible(self, store):
        store.put((0, 0), _payload(1 * MiB), 1 * MiB)
        before = (store.stored_bytes(), store.object_count())
        data = _payload(2 * MiB)
        handle = store.open_put(KEY, 2 * MiB, int(data.size))
        handle.write(2 * MiB)
        assert not store.contains(KEY)
        with pytest.raises(CheckpointNotFound):
            store.get(KEY)
        handle.abort()
        assert not store.contains(KEY)
        assert (store.stored_bytes(), store.object_count()) == before
        assert _counter(store, "write_ops") == 1  # the committed put alone

    def test_put_is_open_one_write_commit(self, store, charges):
        data = _payload(1 * MiB)
        whole = store.put((0, 0), data, 1 * MiB)
        put_charges = list(charges)
        assert put_charges == [(link.name, 1 * MiB) for link in _links(store.route(0, True))]
        ops, nbytes = _counter(store, "write_ops"), _counter(store, "write_bytes")
        del charges[:]
        handle = store.open_put(KEY, 1 * MiB, int(data.size))
        handle.write(1 * MiB)
        assert handle.commit(data) == whole > 0
        assert charges == put_charges
        assert _counter(store, "write_ops") == 2 * ops == 2
        assert _counter(store, "write_bytes") == 2 * nbytes == 2 * MiB
        assert np.array_equal(store.get(KEY)[0], store.get((0, 0))[0])

    def test_chunk_writes_count_bytes_per_chunk_and_one_op(self, store, charges):
        data = _payload(4 * MiB)
        handle = store.open_put(KEY, 4 * MiB, int(data.size))
        seconds = [handle.write(1 * MiB) for _ in range(4)]
        assert len(charges) == 4 * len(_links(store.route(0, True)))
        assert _counter(store, "write_bytes") == 4 * MiB
        assert _counter(store, "write_ops") == 0  # counted at commit
        assert handle.commit(data) == sum(seconds)
        assert _counter(store, "write_ops") == 1
        assert store.size_of(KEY) == 4 * MiB

    @pytest.mark.parametrize("copy", [True, False])
    def test_copy_false_hands_out_the_callers_array(self, store, copy):
        data = _payload(1 * MiB)
        store.put(KEY, data, 1 * MiB, copy=copy)
        out, _ = store.get(KEY)
        in_memory = getattr(store, "_directory", None) is None  # files never share
        assert np.shares_memory(out, data) == (in_memory and not copy)

    @pytest.mark.parametrize("kind", WRITABLE)
    def test_corruption_lands_on_the_stores_copy_only(self, kind, tmp_path):
        store = _make_store(kind, tmp_path, faults=_faults(corruption_rate=1.0))
        data = _payload(1 * MiB)
        pristine = data.copy()
        store.put(KEY, data, 1 * MiB, copy=False)
        out, _ = store.get(KEY)
        assert np.array_equal(data, pristine)
        assert not np.array_equal(out, pristine)
        assert store.verify(KEY) is False

    @pytest.mark.parametrize("kind", WRITABLE)
    def test_outage_opening_mid_stream_raises_at_the_next_chunk(self, kind, tmp_path):
        tier = "pfs" if kind == "pfs" else "ssd"
        faults = _faults(tier_outages=((tier, 10.0, 20.0, 0.0),))
        store = _make_store(kind, tmp_path, faults=faults)
        data = _payload(2 * MiB)
        handle = store.open_put(KEY, 2 * MiB, int(data.size))
        handle.write(1 * MiB)
        faults.clock.t = 15.0  # the window opens between chunk 0 and chunk 1
        with pytest.raises(TierOfflineError):
            handle.write(1 * MiB)
        assert not store.contains(KEY)
        assert store.object_count() == 0
        assert _counter(store, "write_ops") == 0
        with pytest.raises(TierOfflineError):
            store.open_put(KEY, 2 * MiB, int(data.size))


class TestGetContract:
    def test_close_and_finish_each_count_one_read_op(self, view, charges):
        reader, sink = view
        data = _payload(2 * MiB)
        sink.put(KEY, data, 2 * MiB)
        # close() serves the cascade read-back, always a local read: the
        # peer view's handle settles by finish() alone.
        peer = isinstance(reader, PeerSsdStore)
        for settle in ("finish",) if peer else ("finish", "close"):
            before = _counter(sink, "read_ops"), _counter(sink, "read_bytes")
            handle = reader.open_get(KEY)
            assert handle.nominal_size == 2 * MiB
            seconds = handle.read(1 * MiB) + handle.read(1 * MiB)
            assert _counter(sink, "read_ops") == before[0]  # counted when settled
            if settle == "finish":
                payload, total = handle.finish()
                assert np.array_equal(payload[: data.size], data)
                assert total == seconds
            else:
                handle.close()
            assert _counter(sink, "read_ops") == before[0] + 1
            assert _counter(sink, "read_bytes") == before[1] + 2 * MiB

    def test_get_is_open_one_read_finish(self, view, charges):
        reader, sink = view
        data = _payload(1 * MiB)
        sink.put(KEY, data, 1 * MiB)
        payload, seconds = reader.get(KEY)
        handle = reader.open_get(KEY)
        handle.read(handle.nominal_size)
        again, again_seconds = handle.finish()
        assert np.array_equal(payload, again)
        assert again_seconds == seconds > 0
        assert _counter(sink, "read_ops") == 2

    def test_nominal_size_reads_ahead_of_the_commit(self, view):
        reader, sink = view
        data = _payload(1 * MiB)
        writer = sink.open_put(KEY, 1 * MiB, int(data.size))
        with pytest.raises(CheckpointNotFound):
            reader.open_get(KEY)
        handle = reader.open_get(KEY, nominal_size=1 * MiB)
        assert handle.read(1 * MiB) > 0
        assert _counter(sink, "read_bytes") == 1 * MiB
        writer.write(1 * MiB)
        writer.commit(data)
        assert reader.contains(KEY)

    @pytest.mark.parametrize("view", ["ssd-memory", "ssd-file", "peer"], indirect=True)
    def test_offline_ssd_is_dark(self, view):
        reader, sink = view
        sink.put(KEY, _payload(1 * MiB), 1 * MiB)
        sink.crash(preserve_contents=True)
        assert reader.contains(KEY) is False
        with pytest.raises(TierOfflineError):
            reader.open_get(KEY)
        with pytest.raises(TierOfflineError):
            sink.open_put(KEY, 1 * MiB, 1)
        assert reader.verify(KEY) is False
        assert sink.power_on() == [KEY]
        assert reader.contains(KEY) and reader.verify(KEY)


class TestKeywordArguments:
    """Regression: ``put``/``open_put`` took ``**kw`` and picked known names
    out of it, so a misspelt ``canceled=`` silently dropped the cancel event
    and ``SsdStore.open_put(..., node_id=0)`` was a TypeError."""

    def test_unknown_keywords_are_rejected(self, view):
        reader, sink = view
        data = _payload(1 * MiB)
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(TypeError):
            sink.put(KEY, data, 1 * MiB, canceled=cancel)
        assert not sink.contains(KEY)
        with pytest.raises(TypeError):
            sink.open_put(KEY, 1 * MiB, int(data.size), canceled=cancel)
        with pytest.raises(TypeError):
            reader.open_get(KEY, nod_id=0)
        with pytest.raises(TypeError):
            reader.get(KEY, nod_id=0)

    def test_every_store_takes_the_same_keywords(self, view):
        reader, sink = view
        data = _payload(1 * MiB)
        handle = sink.open_put(KEY, 1 * MiB, int(data.size), node_id=0, cancelled=None, request=None)
        handle.write(1 * MiB)
        handle.commit(data)
        sink.put((0, 2), data, 1 * MiB, node_id=0, cancelled=None, request=None, meta={}, copy=True)
        assert reader.open_get(KEY, node_id=0, request=None, nominal_size=None).read(1 * MiB) > 0
        assert reader.get((0, 2), node_id=0, request=None)[1] > 0
