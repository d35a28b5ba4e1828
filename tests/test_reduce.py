"""Unit tests for the data-reduction pipeline (chunking, stores, codec,
encode/reconstruct, delta chains, report rendering)."""

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.config import ReduceConfig, ScaleModel
from repro.core.catalog import CheckpointRecord
from repro.errors import ConfigError, IntegrityError
from repro.reduce import (
    ChunkAccountingError,
    ChunkRegistry,
    ChunkStore,
    Reducer,
    chunk_payload,
    get_codec,
    known_codecs,
    render_reduce_report,
)
from repro.reduce.chunking import cdc_spans, fixed_spans
from repro.reduce.pipeline import RECIPE_OVERHEAD
from repro.tiers.base import TierLevel
from repro.util.units import KiB, MiB

SCALE = ScaleModel(data_scale=64 * KiB, time_scale=0.0005, alignment=64 * KiB)
#: 256 KiB nominal chunks = 4 payload bytes at this scale.
CFG = ReduceConfig(
    enabled=True,
    chunk_size=256 * KiB,
    min_chunk_size=64 * KiB,
    max_chunk_size=1 * MiB,
    max_delta_chain=2,
)


def make_reducer(cfg=CFG, **kwargs) -> Reducer:
    return Reducer(cfg, SCALE, VirtualClock(time_scale=0.0005), **kwargs)


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

    @pytest.mark.parametrize(
        "changes",
        [
            {"site": "ssd"},
            {"chunking": "rabin"},
            {"codec": "brotli"},
            {"chunk_size": 0},
            {"min_chunk_size": 16 * MiB},  # min > avg
            {"max_chunk_size": 4 * MiB},  # max < avg
            {"max_delta_chain": -1},
        ],
        # explicit ids keep each case's name stable when rows are dropped
        ids=[f"changes{i}" for i in (0, 1, 2, 3, 4, 5, 8)],
    )
    def test_validation(self, changes):
        with pytest.raises(ConfigError):
            ReduceConfig(**changes)


class TestChunking:
    def test_fixed_spans_cover_exactly(self):
        payload = payload_of(10 * 256 * KiB + 64 * KiB)
        spans = fixed_spans(int(payload.size), CFG, SCALE)
        assert spans[0].offset == 0
        assert all(
            a.offset + a.length == b.offset for a, b in zip(spans, spans[1:])
        )
        assert sum(s.length for s in spans) == payload.size
        assert sum(s.nominal_size for s in spans) == payload.size * SCALE.data_scale

    def test_cdc_spans_respect_bounds_and_cover(self):
        rng = np.random.default_rng(3)
        cfg = ReduceConfig(
            enabled=True,
            chunking="cdc",
            chunk_size=256 * KiB,
            min_chunk_size=128 * KiB,
            max_chunk_size=512 * KiB,
        )
        payload = payload_of(16 * MiB, rng=rng)
        spans = cdc_spans(payload, cfg, SCALE)
        assert sum(s.length for s in spans) == payload.size
        min_len = (128 * KiB) // SCALE.data_scale
        max_len = (512 * KiB) // SCALE.data_scale
        for span in spans[:-1]:  # the tail may be short
            assert min_len <= span.length <= max_len

    def test_cdc_is_deterministic(self):
        rng = np.random.default_rng(5)
        cfg = ReduceConfig(enabled=True, chunking="cdc")
        payload = payload_of(64 * MiB, rng=rng)
        assert cdc_spans(payload, cfg, SCALE) == cdc_spans(payload.copy(), cfg, SCALE)

    def test_dispatch(self):
        payload = payload_of(1 * MiB)
        assert chunk_payload(payload, CFG, SCALE) == fixed_spans(
            int(payload.size), CFG, SCALE
        )


class TestCodec:
    def test_known_codecs(self):
        assert {"none", "lz", "zstd"} <= set(known_codecs())

    def test_bandwidth_sides(self):
        lz = get_codec("lz")
        assert lz.encode_bandwidth("gpu") > lz.encode_bandwidth("host")
        assert lz.ratio < get_codec("none").ratio

    def test_unknown_codec(self):
        with pytest.raises(ConfigError):
            get_codec("snappy")


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
        payload = payload_of(8 * 256 * KiB, rng=rng)
        r1, r2 = make_record(0, 8 * 256 * KiB), make_record(1, 8 * 256 * KiB)
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
        # Distinct per-chunk contents (4 payload bytes per 256 KiB chunk).
        payload = np.repeat(np.arange(8, dtype=np.uint8), 4)
        r1, r2 = make_record(0, 8 * 256 * KiB), make_record(1, 8 * 256 * KiB)
        reducer.encode(r1, payload)
        reducer.attach(r1, TierLevel.GPU)
        second = payload.copy()
        second[0] ^= 0xFF  # one payload byte = 64 KiB nominal < 0.6 * 256 KiB
        reducer.encode(r2, second)
        image = r2.reduction
        assert image.delta_chunks == 1
        assert image.dup_chunks == 7  # unchanged chunks dedup via the registry
        assert image.depth == 1
        assert image.base_ckpt == 0
        assert image.new_chunks == 0

    def test_chain_depth_bounded_by_rebase(self):
        reducer = make_reducer()  # max_delta_chain=2
        prev = payload_of(8 * 256 * KiB, fill=1)
        depths = []
        for v in range(6):
            record = make_record(v, 8 * 256 * KiB)
            reducer.encode(record, prev)
            depths.append(record.reduction.depth)
            prev = prev.copy()
            prev[v * 4] ^= 0xFF  # one byte per version, distinct chunks
        assert max(depths) <= CFG.max_delta_chain
        assert reducer.rebases >= 1
        assert depths[0] == 0 and depths[1] == 1

    def test_physical_never_exceeds_nominal(self):
        reducer = make_reducer(cfg=ReduceConfig(enabled=True, codec="none"))
        rng = np.random.default_rng(11)
        record = make_record(0, 128 * MiB)
        reducer.encode(record, payload_of(128 * MiB, rng=rng))
        assert record.physical_size <= record.nominal_size
        assert record.stored_size(TierLevel.PFS) == record.physical_size
        assert record.stored_size(TierLevel.GPU) == record.physical_size  # site=gpu

    def test_stored_size_above_site_is_logical(self):
        reducer = make_reducer(
            cfg=ReduceConfig(enabled=True, site="host", chunk_size=256 * KiB,
                             min_chunk_size=64 * KiB, max_chunk_size=1 * MiB)
        )
        record = make_record(0, 1 * MiB)
        reducer.encode(record, payload_of(1 * MiB, fill=9))
        assert record.stored_size(TierLevel.GPU) == record.nominal_size
        assert record.stored_size(TierLevel.HOST) == record.physical_size
        assert record.wire_size(TierLevel.GPU, TierLevel.HOST) == record.nominal_size
        assert record.wire_size(TierLevel.HOST, TierLevel.SSD) == record.physical_size


class TestReconstruct:
    def test_roundtrip_bytes_identical(self):
        reducer = make_reducer()
        rng = np.random.default_rng(13)
        payload = payload_of(2 * MiB, rng=rng)
        record = make_record(0, 2 * MiB)
        reducer.encode(record, payload)
        reducer.attach(record, TierLevel.GPU)
        out, seconds = reducer.reconstruct(record, TierLevel.GPU)
        assert np.array_equal(out, payload)
        assert seconds > 0

    def test_unreduced_record_raises(self):
        reducer = make_reducer()
        with pytest.raises(IntegrityError):
            reducer.reconstruct(make_record(0, 1 * MiB), TierLevel.GPU)

    def test_decode_charge_grows_with_depth(self):
        reducer = make_reducer()
        base = payload_of(8 * 256 * KiB, fill=3)
        r1, r2 = make_record(0, 8 * 256 * KiB), make_record(1, 8 * 256 * KiB)
        reducer.encode(r1, base)
        second = base.copy()
        second[0] ^= 0xFF
        reducer.encode(r2, second)
        _, t_base = reducer.reconstruct(r1, TierLevel.GPU)
        _, t_delta = reducer.reconstruct(r2, TierLevel.GPU)
        assert t_delta > t_base  # chain penalty


class TestAttachDetach:
    def test_attach_is_idempotent_and_detach_inverse(self):
        reducer = make_reducer()
        record = make_record(0, 4 * 256 * KiB)
        reducer.encode(record, payload_of(4 * 256 * KiB, fill=5))
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
        payload = payload_of(4 * 256 * KiB, fill=8)
        r1, r2 = make_record(0, 4 * 256 * KiB), make_record(1, 4 * 256 * KiB)
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
        payload = payload_of(8 * 256 * KiB, fill=2)
        for v in range(3):
            record = make_record(v, 8 * 256 * KiB)
            reducer.encode(record, payload)
            reducer.attach(record, TierLevel.GPU)
        from repro.reduce import reduce_events

        report = render_reduce_report(reduce_events(telemetry.bus.snapshot()))
        assert "p3-reduce" in report
        assert "dedup hit rate" in report
        assert "saved" in report

    def test_report_empty(self):
        assert "no reduction events" in render_reduce_report([])
