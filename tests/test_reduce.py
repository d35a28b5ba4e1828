"""Unit tests for the data-reduction pipeline (chunking, stores,
encode/reconstruct, delta chains, report rendering)."""

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.config import ReduceConfig, ScaleModel
from repro.core.catalog import CheckpointRecord
from repro.errors import IntegrityError
from repro.faults.recipes import RecipeStore
from repro.reduce import (
    ChunkAccountingError,
    ChunkRegistry,
    ChunkStore,
    Reducer,
    render_reduce_report,
)
from repro.reduce.pipeline import CHUNK_SIZE, MAX_DELTA_CHAIN, RECIPE_OVERHEAD
from repro.tiers.base import TierLevel
from repro.util.units import KiB, MiB

SCALE = ScaleModel(data_scale=64 * KiB, time_scale=0.0005, alignment=64 * KiB)
#: payload bytes per 8 MiB nominal chunk at this scale.
CHUNK_BYTES = CHUNK_SIZE // SCALE.data_scale


def make_reducer(**kwargs) -> Reducer:
    return Reducer(SCALE, VirtualClock(time_scale=0.0005), RecipeStore(), **kwargs)


def make_record(ckpt_id: int, nominal: int) -> CheckpointRecord:
    return CheckpointRecord(ckpt_id, SCALE.align(nominal), nominal, 0)


def payload_of(nominal: int, fill=None, rng=None) -> np.ndarray:
    size = SCALE.payload_bytes(SCALE.align(nominal))
    if rng is not None:
        return rng.integers(0, 256, size=size, dtype=np.uint8)
    return np.full(size, 0 if fill is None else fill, dtype=np.uint8)


class TestConfig:
    def test_defaults_disabled(self):
        assert ReduceConfig().enabled is False


class TestChunking:
    def test_fixed_spans_cover_exactly(self):
        nominal = 10 * CHUNK_SIZE + 64 * KiB
        payload = payload_of(nominal, rng=np.random.default_rng(2))
        record = make_record(0, nominal)
        make_reducer().encode(record, payload)
        chunks = record.reduction.chunks
        assert len(chunks) == 11
        assert all(c.nominal_size == CHUNK_SIZE for c in chunks[:-1])
        assert np.array_equal(np.concatenate([c.payload for c in chunks]), payload)
        assert sum(c.payload.size for c in chunks) == payload.size
        assert sum(c.nominal_size for c in chunks) == payload.size * SCALE.data_scale


class TestChunkStore:
    def test_refcounting(self):
        store = ChunkStore(TierLevel.HOST)
        assert store.add(b"a", 100) is True
        assert store.add(b"a", 100) is False
        assert store.held_bytes == 100
        assert store.release(b"a") is False
        assert store.release(b"a") is True
        assert store.held_bytes == 0
        store.check()

    def test_release_without_put_raises(self):
        store = ChunkStore(TierLevel.SSD)
        with pytest.raises(ChunkAccountingError):
            store.release(b"missing")

    def test_registry_orphans_and_liveness(self):
        reg = ChunkRegistry()
        reg.add(b"x", 10)
        assert reg.is_live(b"x")
        assert not list(reg.orphans())
        reg.release(b"x")
        assert not reg.is_live(b"x")
        with pytest.raises(ChunkAccountingError):
            reg.release(b"x")


class TestEncode:
    def test_identical_payload_dedups_fully(self):
        reducer = make_reducer()
        rng = np.random.default_rng(7)
        payload = payload_of(8 * CHUNK_SIZE, rng=rng)
        r1, r2 = make_record(0, 8 * CHUNK_SIZE), make_record(1, 8 * CHUNK_SIZE)
        reducer.encode(r1, payload)
        reducer.attach(r1, TierLevel.GPU)  # chunks become live
        reducer.encode(r2, payload.copy())
        assert r2.reduction.dup_chunks == len(r2.reduction.chunks)
        assert r2.physical_size < r1.physical_size
        assert r2.physical_size <= SCALE.align(
            RECIPE_OVERHEAD * len(r2.reduction.chunks)
        )

    def test_small_in_chunk_change_becomes_delta(self):
        reducer = make_reducer()
        # Distinct per-chunk contents.
        payload = np.repeat(np.arange(8, dtype=np.uint8), CHUNK_BYTES)
        r1, r2 = make_record(0, 8 * CHUNK_SIZE), make_record(1, 8 * CHUNK_SIZE)
        reducer.encode(r1, payload)
        reducer.attach(r1, TierLevel.GPU)
        second = payload.copy()
        second[0] ^= 0xFF  # one payload byte = 64 KiB nominal < 0.6 * 8 MiB
        reducer.encode(r2, second)
        image = r2.reduction
        assert image.delta_chunks == 1
        assert image.dup_chunks == 7  # unchanged chunks dedup via the registry
        assert image.depth == 1
        assert image.base_ckpt == 0
        assert image.new_chunks == 0

    def test_chain_depth_bounded_by_rebase(self):
        reducer = make_reducer()
        prev = payload_of(8 * CHUNK_SIZE, fill=1)
        depths = []
        for v in range(MAX_DELTA_CHAIN + 2):
            record = make_record(v, 8 * CHUNK_SIZE)
            reducer.encode(record, prev)
            depths.append(record.reduction.depth)
            prev = prev.copy()
            prev[v * CHUNK_BYTES] ^= 0xFF  # one byte per version, distinct chunks
        assert max(depths) <= MAX_DELTA_CHAIN
        assert reducer.rebases >= 1
        assert depths[0] == 0 and depths[1] == 1

    def test_physical_never_exceeds_nominal(self):
        reducer = make_reducer()
        rng = np.random.default_rng(11)
        record = make_record(0, 128 * MiB)
        reducer.encode(record, payload_of(128 * MiB, rng=rng))
        assert record.physical_size <= record.nominal_size


class TestReconstruct:
    def test_roundtrip_bytes_identical(self):
        reducer = make_reducer()
        rng = np.random.default_rng(13)
        payload = payload_of(2 * CHUNK_SIZE + 2 * MiB, rng=rng)
        record = make_record(0, 2 * CHUNK_SIZE + 2 * MiB)
        reducer.encode(record, payload)
        reducer.attach(record, TierLevel.GPU)
        out, seconds = reducer.reconstruct(record)
        assert np.array_equal(out, payload)
        assert seconds > 0

    def test_unreduced_record_raises(self):
        reducer = make_reducer()
        with pytest.raises(IntegrityError):
            reducer.reconstruct(make_record(0, 1 * MiB))

    def test_decode_charge_grows_with_depth(self):
        reducer = make_reducer()
        base = payload_of(8 * CHUNK_SIZE, fill=3)
        r1, r2 = make_record(0, 8 * CHUNK_SIZE), make_record(1, 8 * CHUNK_SIZE)
        reducer.encode(r1, base)
        second = base.copy()
        second[0] ^= 0xFF
        reducer.encode(r2, second)
        _, t_base = reducer.reconstruct(r1)
        _, t_delta = reducer.reconstruct(r2)
        assert t_delta > t_base  # chain penalty


class TestAttachDetach:
    def test_attach_is_idempotent_and_detach_inverse(self):
        reducer = make_reducer()
        record = make_record(0, 4 * CHUNK_SIZE)
        reducer.encode(record, payload_of(4 * CHUNK_SIZE, fill=5))
        reducer.attach(record, TierLevel.HOST)
        reducer.attach(record, TierLevel.HOST)  # no double count
        store = reducer.stores[TierLevel.HOST]
        assert sum(store.refs.values()) == len(record.reduction.chunks)
        reducer.detach(record, TierLevel.HOST)
        reducer.detach(record, TierLevel.HOST)  # no-op
        assert not store.refs
        assert not reducer.registry.total_refs

    def test_shared_chunks_survive_one_release(self):
        reducer = make_reducer()
        payload = payload_of(4 * CHUNK_SIZE, fill=8)
        r1, r2 = make_record(0, 4 * CHUNK_SIZE), make_record(1, 4 * CHUNK_SIZE)
        reducer.encode(r1, payload)
        reducer.attach(r1, TierLevel.SSD)
        reducer.encode(r2, payload.copy())
        reducer.attach(r2, TierLevel.SSD)
        reducer.detach(r1, TierLevel.SSD)
        store = reducer.stores[TierLevel.SSD]
        for chunk in r2.reduction.chunks:
            assert store.contains(chunk.digest)
        reducer.detach(r2, TierLevel.SSD)
        assert store.held_bytes == 0


class TestReport:
    def test_report_renders_totals(self):
        from repro.telemetry import Telemetry

        clock = VirtualClock(time_scale=0.0005)
        telemetry = Telemetry(clock, enabled=True)
        reducer = make_reducer(telemetry=telemetry, process_id=3)
        payload = payload_of(8 * CHUNK_SIZE, fill=2)
        for v in range(3):
            record = make_record(v, 8 * CHUNK_SIZE)
            reducer.encode(record, payload)
            reducer.attach(record, TierLevel.GPU)
        from repro.reduce import reduce_events

        report = render_reduce_report(reduce_events(telemetry.bus.snapshot()))
        assert "p3-reduce" in report
        assert "dedup hit rate" in report
        assert "saved" in report

    def test_report_empty(self):
        assert "no reduction events" in render_reduce_report([])
