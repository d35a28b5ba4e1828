"""Cut-through peer reads: a restore served from a peer's SSD is one pipelined
hop chain — ``read`` (the holder's drive) → ``peer-hop`` (the fabric) →
``h2d`` (PCIe) — not three store-and-forward legs.

(a) the closed form ``T_ssd + n·ssd_latency + (T_fabric + T_h2d)/n +
2·transfer_latency``, accounted — the same at any time scale; (b) the three
stages' chunk slices overlap on the trace and every link carries the object
once; (c) a transient failure on either leg, at any chunk, under either
landing, fails over to the PFS mid-stream with every byte paid for once;
(d) an object under two chunks keeps the one-chunk composition; (e) a holder
crash mid-read; (f) two readers on one holder; (g) the pipeline's critical
path; plus the two ``_fail_over`` fixes (the error it re-raises, the breaker
it blames) and the one source resolution per promotion.
"""

import threading
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.clock import VirtualClock
from repro.config import ClusterConfig, ResilienceConfig, ScaleModel
from repro.core.streaming import ChunkPipeline
from repro.core.validator import validate_engine
from repro.errors import TransientTransferError
from repro.tiers.base import TierLevel
from repro.util.units import KiB, MiB
from tests.conftest import TEST_SCALE, make_buffer, tiny_config
from tests.test_hop import LINK_FAULT, breaker_feeds, failing

CKPT = 128 * MiB
CHUNKS = 8  # 16 MiB chunks
CHUNK = CKPT // CHUNKS
GPU, HOST, SSD = TierLevel.GPU, TierLevel.HOST, TierLevel.SSD
LEDGER_SCALE = ScaleModel(data_scale=512 * KiB, time_scale=0.5, alignment=512 * KiB)
WALL_SCALE = ScaleModel(data_scale=512 * KiB, time_scale=1.0, alignment=512 * KiB)


@contextmanager
def peer_read(scale=TEST_SCALE, size=CKPT, num_nodes=3, to_pfs=True, **changes):
    """A checkpoint of node 0, durable (SSDs of nodes 0 and 1, the PFS when
    ``to_pfs``) and adopted by the engine of the last node, which holds no
    copy: ``(topology, reader engine, record, checksum)``."""
    cfg = tiny_config(
        scale=scale, num_nodes=num_nodes, cluster=ClusterConfig(enabled=True), **changes
    )
    with ClusterTopology(cfg, engine_kwargs={"flush_to_pfs": to_pfs}) as topo:
        home, reader = topo.engines[0], topo.engines[-1]
        buf = make_buffer(home.context, size, seed=11)
        home.checkpoint(0, buf)
        for engine in topo.engines:
            engine.wait_for_flushes(timeout=600.0)
        record = reader.adopt_foreign(home.process_id, 0)
        yield topo, reader, record, buf.checksum()


def links(topo, reader):
    """``(holder's drive, fabric, PCIe)``: the links of a read by ``reader``
    off node 0, the first holder in ring order from the last node."""
    return (
        topo.cluster.nodes[0].ssd.read_link,
        topo.fabric.link(reader.node_id, 0),
        reader.device.h2d_link,
    )


def closed_form(topo, reader, size=CKPT, chunks=CHUNKS):
    drive, fabric, pcie = links(topo, reader)
    return (
        size / drive.bandwidth + chunks * drive.latency
        + (size / fabric.bandwidth + size / pcie.bandwidth) / chunks
        + fabric.latency + pcie.latency
    )


def parent_sum(topo, reader, size=CKPT):
    """What the three legs cost one after the other."""
    return sum(link.estimate(size, include_pending=False) for link in links(topo, reader))


def slices(topo, name):
    return sorted(
        (ev for ev in topo.telemetry.bus.snapshot() if ev.name == name),
        key=lambda ev: ev.args["chunk"],
    )


# -- (a) the closed form --------------------------------------------------------

@pytest.mark.parametrize("scale", [TEST_SCALE, LEDGER_SCALE], ids=["test-scale", "ledger-scale"])
def test_cross_node_restore_costs_the_slowest_link_plus_one_chunk_of_the_others(scale):
    with peer_read(scale) as (topo, reader, record, checksum):
        assert reader.chunks_for(CKPT, reader.read_source(reader.store_key(record))) == CHUNKS
        expected = closed_form(topo, reader)
        out = reader.device.alloc_buffer(CKPT)
        blocked = reader.restore(0, out)
        assert out.checksum() == checksum
        # The restore adds the device-to-device copy-out to the promotion.
        copy_out = reader.device.d2d_link.estimate(CKPT, include_pending=False)
        assert blocked == pytest.approx(expected + copy_out, rel=1e-9)
        assert blocked == pytest.approx(expected, rel=0.02)
        assert blocked < 0.8 * parent_sum(topo, reader)
        snap = topo.telemetry.registry.snapshot()
        assert snap["cluster.peer.reads"] == 1 and snap["tier.pfs.read_ops"] == 0
        validate_engine(reader)


def test_promotion_returns_the_accounted_critical_path():
    with peer_read() as (topo, reader, record, _checksum):
        seconds = reader.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)
        assert seconds == pytest.approx(closed_form(topo, reader), rel=1e-9)
        assert {level for level, inst in record.instances.items() if inst.has_copy} == {GPU, HOST}


# -- (b) the stages overlap ------------------------------------------------------

def test_stages_overlap_on_the_trace_and_each_link_carries_the_object_once():
    with peer_read(LEDGER_SCALE, telemetry=True) as (topo, reader, record, checksum):
        before = [link.bytes_moved for link in links(topo, reader)]
        out = reader.device.alloc_buffer(CKPT)
        reader.restore(0, out)
        assert out.checksum() == checksum
        assert [
            link.bytes_moved - was for link, was in zip(links(topo, reader), before)
        ] == [CKPT] * 3
        stages = {name: slices(topo, f"{name}-chunk") for name in ("read", "peer-hop", "h2d")}
        for name, chunks in stages.items():
            assert [ev.args["chunk"] for ev in chunks] == list(range(CHUNKS)), name
            assert sum(ev.args["bytes"] for ev in chunks) == CKPT, name
        assert {ev.track for ev in stages["peer-hop"]} == {f"node{reader.node_id}-peer"}
        # Chunk i + 1 is on the drive while chunk i is on the fabric and PCIe.
        for downstream in ("peer-hop", "h2d"):
            assert any(
                later.ts < ev.ts + ev.dur and ev.ts < later.ts + later.dur
                for ev, later in zip(stages[downstream], stages["read"][1:])
            ), downstream
        # ... and no stage runs ahead of the one that feeds it.
        for up, down in (("read", "peer-hop"), ("peer-hop", "h2d")):
            for fed, eats in zip(stages[up], stages[down]):
                assert eats.ts >= fed.ts


# -- (c) the failover matrix ------------------------------------------------------

@pytest.mark.parametrize("landing", ["fused", "host-only"])
@pytest.mark.parametrize("leg", ["drive", "hop"])
@pytest.mark.parametrize("chunk", [0, 3, CHUNKS - 1], ids=["first", "middle", "last"])
def test_mid_stream_failure_fails_over_to_the_pfs(chunk, leg, landing):
    with peer_read() as (topo, reader, record, checksum):
        drive, fabric, pcie = links(topo, reader)
        before = [link.bytes_moved for link in (drive, fabric, pcie)]
        key = reader.store_key(record)
        gpu_claim = nullcontext() if landing == "fused" else refused(reader.gpu_cache)
        faulty = drive if leg == "drive" else fabric
        with gpu_claim, failing(faulty, "transfer", LINK_FAULT, at=chunk) as calls:
            seconds = reader.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)
        assert len(calls) > chunk, "the failure point was never reached"
        assert seconds > 0
        snap = topo.telemetry.registry.snapshot()
        assert snap["cluster.peer.fallbacks"] == 1
        assert snap["cluster.peer.reads"] == 0  # not a pure peer read
        assert snap["tier.pfs.read_ops"] == 1
        # Every byte is paid for once past the failure: what had crossed the
        # hop stays crossed, the rest — the failed chunk, and what the drive
        # had read ahead of the hop — is read off the PFS.
        moved = [link.bytes_moved - was for link, was in zip((drive, fabric, pcie), before)]
        crossed = CKPT - snap["tier.pfs.read_bytes"]
        assert crossed % CHUNK == 0 and 0 <= crossed <= chunk * CHUNK
        if leg == "hop":
            assert crossed == moved[1] == chunk * CHUNK
            assert moved[0] >= (chunk + 1) * CHUNK  # the drive was ahead
        else:
            assert moved[0] == chunk * CHUNK  # the failed chunk moved nothing
            # (a chunk mid-hop when the drive died is replayed all the same)
            assert moved[1] in (crossed, crossed + CHUNK)
        # Both consumers settled before the claims were landed or dropped.
        assert reader.promote_stream.depth == 0 and reader.peer_stream.depth == 0
        cached = {level for level, inst in record.instances.items() if inst.has_copy}
        assert cached == ({GPU, HOST} if landing == "fused" else {HOST})
        assert moved[2] == (CKPT if landing == "fused" else 0)
        validate_engine(reader)
        out = reader.device.alloc_buffer(CKPT)
        reader.restore(0, out)
        assert out.checksum() == checksum
        size = out.payload.size
        assert np.array_equal(out.payload, topo.cluster.pfs._read_payload(key)[:size])
        validate_engine(reader)


@contextmanager
def refused(cache):
    """Every claim of an extent of ``cache`` is refused meanwhile."""
    cache.open_put = lambda *args, **terms: None
    try:
        yield
    finally:
        del cache.open_put


def test_host_only_landing_overlaps_drive_and_fabric():
    """A refused GPU claim lands the host extent alone — still as chunks,
    ``read`` and ``peer-hop`` overlapped, no ``h2d`` stage."""
    with peer_read(telemetry=True) as (topo, reader, record, _checksum):
        drive, fabric, _pcie = links(topo, reader)
        with refused(reader.gpu_cache):
            seconds = reader.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)
        assert seconds == pytest.approx(
            CKPT / drive.bandwidth + CHUNKS * drive.latency
            + fabric.estimate(CHUNK, include_pending=False),
            rel=1e-9,
        )
        assert len(slices(topo, "read-chunk")) == len(slices(topo, "peer-hop-chunk")) == CHUNKS
        assert not slices(topo, "h2d-chunk")
        assert record.peek(GPU) is None and record.peek(HOST).has_copy
        validate_engine(reader)


# -- the two _fail_over fixes ------------------------------------------------------

def test_failover_with_no_durable_copy_below_surfaces_the_error_it_was_given():
    """The hop leg runs on its own stage: the error to re-raise is the one
    handed over, not whatever ``except`` block the caller happens to be in."""
    with peer_read(to_pfs=False) as (topo, reader, record, checksum):
        _drive, fabric, _pcie = links(topo, reader)
        with failing(fabric, "transfer", LINK_FAULT, at=2):
            with pytest.raises(TransientTransferError) as raised:
                reader.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)
        assert raised.value is LINK_FAULT
        assert not record.instances  # the bytes never arrived: nothing landed
        assert reader.promote_stream.depth == 0 and reader.peer_stream.depth == 0
        validate_engine(reader)
        handle = reader.read_source(reader.store_key(record)).open_get(reader.store_key(record))
        with pytest.raises(TransientTransferError) as raised:
            handle._fail_over(LINK_FAULT, "node0-ssd", None)  # from no except block
        assert raised.value is LINK_FAULT
        out = reader.device.alloc_buffer(CKPT)
        reader.restore(0, out)  # the peer itself was never sick
        assert out.checksum() == checksum


@pytest.mark.parametrize("leg", ["drive", "hop"])
def test_failover_blames_the_leg_that_failed(leg):
    """A fabric fault must not blacklist a healthy drive for every other
    reader: the breaker fed is the failed leg's."""
    resilience = ResilienceConfig(enabled=True, breaker_threshold=1)
    with peer_read(resilience=resilience) as (topo, reader, record, checksum):
        drive, fabric, _pcie = links(topo, reader)
        holder = topo.cluster.nodes[0].ssd
        with breaker_feeds(reader) as fed:
            with failing(drive if leg == "drive" else fabric, "transfer", LINK_FAULT, at=1):
                reader.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)
        blamed = holder.track if leg == "drive" else f"node{reader.node_id}-peer"
        assert fed["failure"] == [blamed]
        # threshold 1: the blamed breaker is open, and only the drive's steers reads
        assert topo.cluster.health.healthy(holder.track) == (leg == "hop")
        source = topo.fabric.peer_source(reader.node_id, reader.store_key(record))
        assert source.peer_node == (1 if leg == "drive" else 0)
        out = reader.device.alloc_buffer(CKPT)
        reader.restore(0, out)
        assert out.checksum() == checksum


# -- (d) under two chunks: the one-chunk composition -----------------------------------

def test_small_object_plans_one_chunk_and_times_as_drive_then_hop():
    small = 16 * MiB
    with peer_read(size=small, telemetry=True) as (topo, reader, record, checksum):
        drive, fabric, pcie = links(topo, reader)
        store = reader.read_source(reader.store_key(record))
        assert reader.chunks_for(small, store) == 1
        assert not reader.fuses_host_promotion(record, SSD, store)
        seconds = reader.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)
        assert seconds == (
            drive.estimate(small, include_pending=False)
            + fabric.estimate(small, include_pending=False)
        )
        assert record.peek(GPU) is None and record.peek(HOST).has_copy
        names = {ev.name for ev in topo.telemetry.bus.snapshot()}
        assert "peer-hop" in names  # the hop's own span, inside the read
        assert not names & {"read-chunk", "peer-hop-chunk", "h2d-chunk"}
        out = reader.device.alloc_buffer(small)
        reader.restore(0, out)
        assert out.checksum() == checksum
        assert pcie.bytes_moved == small


def test_local_reads_keep_their_plan():
    """The fabric rule is the peer view's alone: a local SSD read plans one
    chunk unless streaming is on, on an engine with a fabric too."""
    with peer_read() as (topo, _reader, _record, _checksum):
        home = topo.engines[0]
        assert home.chunks_for(CKPT) == home.chunks_for(CKPT, home.ssd) == 1
        assert home.chunks_for(CKPT, home.pfs) == 1
        assert not home.ssd.across_fabric and not home.pfs.across_fabric


def test_only_an_engine_on_a_fabric_has_the_hop_worker(engine):
    assert engine.fabric is None and engine.peer_stream is None
    assert engine.promote_legs[HOST][1].stream is None
    assert not [t.name for t in threading.enumerate() if "promote-peer" in t.name]
    with peer_read() as (_topo, reader, _record, _checksum):
        assert reader.promote_legs[HOST][1].stream is reader.peer_stream
        assert [leg.stage for leg in reader.promote_legs[HOST]] == ["read", "peer-hop", "h2d"]
        names = [t.name for t in threading.enumerate() if "promote-peer" in t.name]
        assert len(names) == 3  # one per engine of the three-node fabric


# -- (e) the holder crashes mid-read ---------------------------------------------------

def test_holder_crash_mid_read_drops_to_the_pfs():
    with peer_read() as (topo, reader, _record, checksum):
        drive, _fabric, _pcie = links(topo, reader)
        membership = topo.fabric.membership

        def crash_every_holder():
            membership.crash(0, "fail-stop")
            membership.crash(1, "fail-stop")

        out = reader.device.alloc_buffer(CKPT)
        with failing(drive, "transfer", at=3, before=crash_every_holder) as calls:
            reader.restore(0, out)
        assert len(calls) > 3
        assert out.checksum() == checksum
        snap = topo.telemetry.registry.snapshot()
        assert snap["tier.pfs.read_ops"] == 1 and snap["cluster.peer.reads"] == 0
        assert reader.promote_stream.depth == 0 and reader.peer_stream.depth == 0
        validate_engine(reader)


# -- (f) two readers, one holder ---------------------------------------------------------

def test_two_readers_on_one_holder_share_the_drive_chunk_by_chunk():
    with peer_read(WALL_SCALE, num_nodes=4) as (topo, _last, _record, checksum):
        readers = topo.engines[2:]  # node 0 is the nearest holder of both
        key = (topo.engines[0].process_id, 0)
        assert all(topo.fabric.peer_source(r.node_id, key).peer_node == 0 for r in readers)
        topo.engines[2].adopt_foreign(*key)
        drive = topo.cluster.nodes[0].ssd.read_link
        outs = [reader.device.alloc_buffer(CKPT) for reader in readers]
        blocked = [None, None]

        def restore(i):
            blocked[i] = readers[i].restore(0, outs[i])

        threads = [threading.Thread(target=restore, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert [out.checksum() for out in outs] == [checksum] * 2
        on_drive = CKPT / drive.bandwidth
        # The wait for the other reader's chunks is in the accounted figure ...
        assert max(blocked) >= 1.5 * on_drive
        # ... and neither is slower than queueing whole objects FIFO was.
        assert max(blocked) <= on_drive + parent_sum(topo, readers[0])
        assert topo.telemetry.registry.snapshot()["cluster.peer.reads"] == 2
        for reader in readers:
            validate_engine(reader)


# -- one resolution per promotion ----------------------------------------------------------

def test_one_restore_resolves_its_source_once():
    with peer_read() as (topo, reader, _record, checksum):
        fabric = topo.fabric
        with failing(fabric, "peer_source") as calls:  # (nothing injected: counted)
            out = reader.device.alloc_buffer(CKPT)
            reader.restore(0, out)
        assert out.checksum() == checksum
        assert len(calls) == 1  # (adopt_foreign, before, made the only other one)


# -- (g) the pipeline's critical path -------------------------------------------------------

class TestCriticalPath:
    @staticmethod
    def pipeline(chunks, *stages):
        pipe = ChunkPipeline(0, chunks, VirtualClock(0.002))
        for stage in stages:
            pipe.add_stage(stage)
        return pipe

    @staticmethod
    def charge(pipe, stage, spent):
        bus = type("Bus", (), {"complete": lambda self, *args, **kwargs: None})()
        for i, seconds in enumerate(spent):
            assert pipe.charge_chunk(stage, i, 1, lambda s=seconds: s, bus, "t", {}) == seconds

    def test_one_stage_is_the_sum_of_its_chunks(self):
        pipe = self.pipeline(4, "a")
        assert pipe.critical_s() == 0.0  # nothing charged yet
        self.charge(pipe, "a", [0.25, 0.5, 0.25, 1.0])
        assert pipe.critical_s() == 2.0

    def test_one_chunk_is_the_sum_of_the_stages(self):
        pipe = self.pipeline(1, "a", "b", "c")
        for stage, spent in (("a", 0.5), ("b", 0.25), ("c", 0.125)):
            self.charge(pipe, stage, [spent])
        assert pipe.critical_s() == 0.875

    def test_full_grid_is_the_slowest_stage_plus_a_chunk_of_each_other(self):
        pipe = self.pipeline(4, "a", "b", "c")
        for stage, spent in (("a", 1.0), ("b", 0.25), ("c", 0.5)):
            self.charge(pipe, stage, [spent] * 4)
        assert pipe.critical_s() == 4 * 1.0 + 0.25 + 0.5
        # A slow stage below a fast one: its first chunk waits, then it paces.
        pipe = self.pipeline(4, "a", "b")
        for stage, spent in (("a", 0.25), ("b", 1.0)):
            self.charge(pipe, stage, [spent] * 4)
        assert pipe.critical_s() == 0.25 + 4 * 1.0

    def test_a_stalled_downstream_adds_no_accounted_time(self):
        """Host hand-off is what the clock sees and the grid does not."""
        pipe = self.pipeline(1, "a", "b")
        done = []

        def downstream():
            assert pipe.await_upstream("b", 0)
            self.charge(pipe, "b", [0.5])
            done.append(True)

        worker = threading.Thread(target=downstream)
        worker.start()
        pipe.clock.sleep(20.0)  # 40 ms wall: b stalls on a
        self.charge(pipe, "a", [0.25])
        worker.join(timeout=10.0)
        assert done and pipe.stall_s["b"] > 0.0
        assert pipe.critical_s() == 0.75

    def test_a_failed_stage_counts_what_it_charged(self):
        pipe = self.pipeline(3, "a", "b")

        def boom():
            raise RuntimeError("link fault")

        self.charge(pipe, "a", [1.0] * 3)
        self.charge(pipe, "b", [0.5])
        with pytest.raises(RuntimeError):
            pipe.charge_chunk("b", 1, 1, boom, None, "t", {})
        pipe.fail("b")
        assert pipe.critical_s() == 1.5  # a's chunk 0, then b's: as far as b got
