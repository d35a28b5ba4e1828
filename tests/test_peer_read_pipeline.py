"""Cut-through peer reads: a restore served from a peer's SSD is one read
leg — the holder's drive with the fabric crossed alongside it, at the pace
of the slower — feeding ``h2d`` (PCIe) chunk by chunk, not three
store-and-forward legs.

(a) the closed form ``T_drive + n·ssd_latency + T_pcie/n + pcie.latency``,
``T_drive`` taken at the slower of drive and fabric, accounted — the same at
any time scale; (b) the two stages' chunk slices overlap on the trace and
every link carries the object once; (c) a transient failure on either link,
at any chunk, under either landing, fails over to the PFS mid-stream,
replaying exactly the failed chunk; (d) a host-only read, and an object
under two chunks, is one chunk at the slower link; (e) a holder crash
mid-read; (f) two readers on one holder; (g) a replica copy and a peer read
book one fabric link; (h) the pipeline's critical path; plus ``_fail_over``'s
error and breaker, and the one source resolution per promotion.
"""

import threading
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.clock import VirtualClock
from repro.config import ClusterConfig, HardwareSpec, ScaleModel
from repro.core.hop import copy_whole
from repro.core.streaming import ChunkPipeline
from repro.core.validator import validate_engine
from repro.errors import TransientTransferError
from repro.faults.health import BREAKER_THRESHOLD
from repro.telemetry.bus import TraceBus
from repro.tiers.base import TierLevel
from repro.util.units import GiB, KiB, MiB
from tests.conftest import TEST_SCALE, make_buffer, start_runners, tiny_config
from tests.test_hop import LINK_FAULT, breaker_feeds, failing, faulting

CKPT = 128 * MiB
CHUNKS = 8  # 16 MiB chunks
CHUNK = CKPT // CHUNKS
GPU, HOST, SSD = TierLevel.GPU, TierLevel.HOST, TierLevel.SSD
LEDGER_SCALE = ScaleModel(data_scale=512 * KiB, time_scale=0.5, alignment=512 * KiB)
#: 50 wall seconds per nominal second.  A queued transfer's wait is read off
#: the clock, which runs at wall pace while the slot's holder hands it on; at
#: time_scale 1.0 that host time (≈ 0.1 ms a hand-off) is nominal time too.
SLOW_SCALE = ScaleModel(data_scale=512 * KiB, time_scale=50.0, alignment=512 * KiB)
#: a fabric slower than the drive (5.5 GiB/s): the route then costs the fabric.
SLOW_FABRIC = HardwareSpec(internode_bandwidth=2 * GiB)


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
        topo.cluster.internode_link(reader.node_id, 0),
        reader.device.h2d_link,
    )


def one_leg(topo, reader, size=CKPT, chunks=1):
    """The read leg alone: each chunk pays the drive's latency and crosses
    at the slower of drive and fabric (whose latency is not charged)."""
    drive, fabric, _pcie = links(topo, reader)
    return size / min(drive.bandwidth, fabric.bandwidth) + chunks * drive.latency


def closed_form(topo, reader, size=CKPT, chunks=CHUNKS):
    """The read leg, then the last chunk's PCIe crossing."""
    pcie = links(topo, reader)[2]
    return one_leg(topo, reader, size, chunks) + size / pcie.bandwidth / chunks + pcie.latency


def parent_sum(topo, reader, size=CKPT):
    """What the three links cost one after the other."""
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
        assert blocked < 0.8 * parent_sum(topo, reader)
        snap = topo.telemetry.registry.snapshot()
        assert snap["cluster.peer.reads"] == 1 and snap["tier.pfs.read_ops"] == 0
        validate_engine(reader)


def test_a_fabric_slower_than_the_drive_sets_the_pace():
    with peer_read(hardware=SLOW_FABRIC) as (topo, reader, record, _checksum):
        drive, fabric, _pcie = links(topo, reader)
        assert fabric.bandwidth < drive.bandwidth
        seconds = reader.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)
        assert seconds == pytest.approx(closed_form(topo, reader), rel=1e-9)
        assert seconds > CKPT / fabric.bandwidth > CKPT / drive.bandwidth


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
        stages = {name: slices(topo, f"{name}-chunk") for name in ("read", "h2d")}
        for name, chunks in stages.items():
            assert [ev.args["chunk"] for ev in chunks] == list(range(CHUNKS)), name
            assert sum(ev.args["bytes"] for ev in chunks) == CKPT, name
        assert not slices(topo, "peer-hop-chunk")  # the fabric has no stage of its own
        # Chunk i + 1 is on the drive and the fabric while chunk i is on PCIe ...
        assert any(
            later.ts < ev.ts + ev.dur and ev.ts < later.ts + later.dur
            for ev, later in zip(stages["h2d"], stages["read"][1:])
        )
        # ... and PCIe never runs ahead of the read that feeds it.
        for fed, eats in zip(stages["read"], stages["h2d"]):
            assert eats.ts >= fed.ts


# -- (c) the failover matrix ------------------------------------------------------

@pytest.mark.parametrize("landing", ["fused", "host-only"])
@pytest.mark.parametrize("leg", ["drive", "hop"])
@pytest.mark.parametrize("chunk", [0, 3, CHUNKS - 1], ids=["first", "middle", "last"])
def test_mid_stream_failure_fails_over_to_the_pfs(chunk, leg, landing):
    """A fault ``chunk * CHUNK`` bytes into the object, drawn on the drive or
    on the fabric crossed alongside it.  A fused read plans chunks, so the
    fault fails chunk ``chunk``; a host-only read is one chunk, failed
    part-way.  Either way the drive and the fabric moved the same bytes, and
    the PFS replays exactly the failed chunk and reads the rest."""
    with peer_read() as (topo, reader, record, checksum):
        drive, fabric, pcie = links(topo, reader)
        before = [link.bytes_moved for link in (drive, fabric, pcie)]
        key = reader.store_key(record)
        fused = landing == "fused"
        where = dict(at=chunk) if fused else dict(after=chunk * CHUNK)
        gpu_claim = nullcontext() if fused else refused(reader.gpu_cache)
        with gpu_claim, faulting(drive if leg == "drive" else fabric, **where) as draws:
            seconds = reader.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)
        assert len(draws) == (chunk + 1 if fused else 1), "the failure point was never reached"
        assert seconds > 0
        snap = topo.telemetry.registry.snapshot()
        assert snap["cluster.peer.fallbacks"] == 1
        assert snap["cluster.peer.reads"] == 0  # not a pure peer read
        assert snap["tier.pfs.read_ops"] == 1
        moved = [link.bytes_moved - was for link, was in zip((drive, fabric, pcie), before)]
        assert moved[0] == moved[1] == chunk * CHUNK  # one leg: the same bytes
        # The chunks that crossed stay crossed; the failed one is replayed whole.
        assert snap["tier.pfs.read_bytes"] == (CKPT - chunk * CHUNK if fused else CKPT)
        assert reader.promote_stream.depth == 0  # the consumer settled first
        cached = {level for level, inst in record.instances.items() if inst.has_copy}
        assert cached == ({GPU, HOST} if fused else {HOST})
        assert moved[2] == (CKPT if fused else 0)
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
    """A refused GPU claim lands the host extent alone: a lone stage, so one
    chunk, the drive and the fabric crossed at once at the slower's pace."""
    with peer_read(telemetry=True) as (topo, reader, record, _checksum):
        drive, fabric, _pcie = links(topo, reader)
        before = fabric.bytes_moved
        with refused(reader.gpu_cache):
            seconds = reader.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)
        assert seconds == pytest.approx(one_leg(topo, reader), rel=1e-9)
        assert fabric.bytes_moved - before == CKPT
        assert not slices(topo, "read-chunk") and not slices(topo, "h2d-chunk")
        assert record.peek(GPU) is None and record.peek(HOST).has_copy
        validate_engine(reader)


# -- _fail_over: the error it surfaces, the breaker it blames -----------------------

def test_failover_with_no_durable_copy_below_surfaces_the_error_it_was_given():
    """With no PFS copy the error re-raised is the one the failed link
    raised, not whatever ``except`` block the caller happens to be in."""
    with peer_read(to_pfs=False) as (topo, reader, record, checksum):
        _drive, fabric, _pcie = links(topo, reader)
        with faulting(fabric, at=2):
            with pytest.raises(TransientTransferError) as raised:
                reader.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)
        assert raised.value.link is fabric
        assert str(raised.value) == f"injected fault on {fabric.name}"
        assert not record.instances  # the bytes never arrived: nothing landed
        assert reader.promote_stream.depth == 0
        validate_engine(reader)
        handle = reader.read_source(reader.store_key(record)).open_get(reader.store_key(record))
        with pytest.raises(TransientTransferError) as raised:
            handle._fail_over(LINK_FAULT, CHUNK, None)  # from no except block
        assert raised.value is LINK_FAULT
        out = reader.device.alloc_buffer(CKPT)
        reader.restore(0, out)  # the peer itself was never sick
        assert out.checksum() == checksum


@pytest.mark.parametrize("leg", ["drive", "hop"])
def test_failover_blames_the_leg_that_failed(leg):
    """A fabric fault must not blacklist a healthy drive for every other
    reader: the breaker fed is that of the link the fault names."""
    with peer_read() as (topo, reader, record, checksum):
        drive, fabric, _pcie = links(topo, reader)
        holder = topo.cluster.nodes[0].ssd
        with breaker_feeds(reader) as fed:
            with faulting(drive if leg == "drive" else fabric, at=1):
                reader.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)
        blamed = holder.track if leg == "drive" else f"node{reader.node_id}-peer"
        assert fed["failure"] == [blamed]
        # The blamed breaker, tripped to its threshold, is open; only the
        # drive's steers reads.
        for _ in range(BREAKER_THRESHOLD - 1):
            topo.cluster.health.failure(blamed)
        assert topo.cluster.health.healthy(holder.track) == (leg == "hop")
        source = topo.fabric.peer_source(reader.node_id, reader.store_key(record))
        assert source.peer_node == (1 if leg == "drive" else 0)
        out = reader.device.alloc_buffer(CKPT)
        reader.restore(0, out)
        assert out.checksum() == checksum


# -- (d) under two chunks: one chunk at the slower link --------------------------------

def test_small_object_plans_one_chunk_at_the_slower_link():
    small = 16 * MiB
    with peer_read(size=small, telemetry=True) as (topo, reader, record, checksum):
        pcie = links(topo, reader)[2]
        store = reader.read_source(reader.store_key(record))
        assert reader.chunks_for(small, store) == 1
        assert not reader.fuses_host_promotion(record, store)
        seconds = reader.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)
        assert seconds == pytest.approx(one_leg(topo, reader, small), rel=1e-9)
        assert record.peek(GPU) is None and record.peek(HOST).has_copy
        names = {ev.name for ev in topo.telemetry.bus.snapshot()}
        assert not names & {"peer-hop", "read-chunk", "peer-hop-chunk", "h2d-chunk"}
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


def test_no_engine_starts_a_peer_hop_worker(engine):
    """The read leg runs on the promoting thread, drive and fabric at once:
    the only promotion stream is the ``h2d`` consumer's."""
    assert engine.fabric is None
    with peer_read() as (_topo, reader, _record, _checksum):
        assert [leg.stage for leg in reader.promote_legs[HOST]] == ["read", "h2d"]
        assert [leg.stream for leg in reader.promote_legs[HOST]] == [None, reader.promote_stream]
        assert not [t.name for t in threading.enumerate() if "promote-peer" in t.name]


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
        assert reader.promote_stream.depth == 0
        validate_engine(reader)


# -- (f) two readers, one holder ---------------------------------------------------------

def test_two_readers_on_one_holder_share_the_drive_chunk_by_chunk():
    """The drive grants one chunk at a time, first come first served, so the
    two reads alternate on it: every chunk of either but its first queues
    behind one of the other's, less the drive latency it slept meanwhile —
    and no reader waits longer than the other's whole object on the drive."""
    with peer_read(SLOW_SCALE, num_nodes=4) as (topo, _last, _record, checksum):
        readers = topo.engines[2:]  # node 0 is the nearest holder of both
        key = (topo.engines[0].process_id, 0)
        assert all(topo.fabric.peer_source(r.node_id, key).peer_node == 0 for r in readers)
        topo.engines[2].adopt_foreign(*key)
        drive = topo.cluster.nodes[0].ssd.read_link
        outs = [reader.device.alloc_buffer(CKPT) for reader in readers]
        blocked = [None, None]

        def restore(i):
            blocked[i] = readers[i].restore(0, outs[i])

        for thread in start_runners(topo.cluster.clock, (restore, 0), (restore, 1)):
            topo.cluster.clock.join(thread)
        assert [out.checksum() for out in outs] == [checksum] * 2
        alone = closed_form(topo, readers[0]) + readers[0].device.d2d_link.estimate(
            CKPT, include_pending=False
        )  # the restore's copy-out
        on_drive = CKPT / drive.bandwidth
        assert min(blocked) >= alone + (CHUNKS - 1) * (on_drive / CHUNKS - drive.latency)
        assert max(blocked) <= alone + on_drive
        assert topo.telemetry.registry.snapshot()["cluster.peer.reads"] == 2
        for reader in readers:
            validate_engine(reader)


# -- (g) one fabric link, two users ------------------------------------------------------

def test_a_replica_copy_and_a_peer_read_both_book_the_fabric():
    """A ring copy from the reader's drive to the holder's crosses the same
    fabric link as the peer read, at the same time: both book it, so each
    takes at least its solo time and together at least the link's time for
    both objects — over a fabric slower than either drive."""
    with peer_read(hardware=SLOW_FABRIC) as (topo, reader, record, _checksum):
        nodes = topo.cluster.nodes
        drive, fabric, _pcie = links(topo, reader)
        reader.checkpoint(1, make_buffer(reader.context, CKPT, seed=12))
        reader.wait_for_flushes(timeout=600.0)
        copied = (reader.process_id, 1)
        nodes[0].ssd.delete(copied)  # its ring replica: copied again below
        clock = topo.cluster.clock
        before = fabric.bytes_moved
        spans = {}

        def timed(name, fn):
            start = clock.now()
            fn()
            spans[name] = (start, clock.now())

        def read():
            reader.promote_once(record, SSD, HOST, blocking=True, allow_pinned=True)

        def copy():
            copy_whole(nodes[reader.node_id].ssd, nodes[0].ssd, copied, hop=fabric)

        for thread in start_runners(clock, (timed, "read", read), (timed, "copy", copy)):
            clock.join(thread)
        assert fabric.bytes_moved - before == 2 * CKPT
        assert nodes[0].ssd.contains(copied)
        took = {name: end - start for name, (start, end) in spans.items()}
        assert took["read"] >= closed_form(topo, reader)
        put = nodes[0].ssd.write_link.estimate(CKPT, include_pending=False)
        assert took["copy"] >= drive.latency + CKPT / fabric.bandwidth + put
        first = min(start for start, _end in spans.values())
        last = max(end for _start, end in spans.values())
        assert last - first >= 2 * CKPT / fabric.bandwidth


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
        bus = TraceBus(pipe.clock, enabled=False)
        for i, seconds in enumerate(spent):
            step = pipe.charge_chunk(stage, i, 1, lambda s=seconds: s, bus, "t", (None, None, {}))
            assert step == seconds

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

        (worker,) = start_runners(pipe.clock, (downstream,))
        pipe.clock.sleep(20.0)  # b stalls on a
        self.charge(pipe, "a", [0.25])
        pipe.clock.join(worker)
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
