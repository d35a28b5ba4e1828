"""Configuration validation and scale-model arithmetic."""

import dataclasses

import pytest

from repro import config as config_module
from repro.config import (
    BENCH_SCALE,
    AnalysisConfig,
    CacheConfig,
    ClusterConfig,
    FaultConfig,
    HardwareSpec,
    PredictConfig,
    ReduceConfig,
    ResilienceConfig,
    RuntimeConfig,
    ScaleModel,
    SchedConfig,
    SloConfig,
    StreamConfig,
    bench_config,
)
from repro.errors import ConfigError
from repro.util.units import GiB, KiB, MiB

#: every configuration class :mod:`repro.config` declares.
CONFIG_CLASSES = (
    HardwareSpec, ScaleModel, CacheConfig, SchedConfig, ReduceConfig, StreamConfig,
    FaultConfig, ResilienceConfig, SloConfig, AnalysisConfig, ClusterConfig,
    PredictConfig, RuntimeConfig,
)
BANDWIDTHS = (
    "d2d_bandwidth", "d2h_bandwidth", "h2d_bandwidth", "d2h_unpinned_bandwidth",
    "ssd_write_bandwidth", "ssd_read_bandwidth", "pfs_write_bandwidth",
    "pfs_read_bandwidth", "host_pin_bandwidth", "gpu_alloc_bandwidth",
    "uvm_migration_bandwidth", "host_serialize_bandwidth", "internode_bandwidth",
)
LATENCIES = ("transfer_latency", "ssd_latency", "pfs_latency", "uvm_fault_latency")


def _scale_method(method, size):
    def call():
        scale = ScaleModel(data_scale=1024, alignment=1024)
        return getattr(scale, method)(size)

    call.__name__ = f"ScaleModel.{method}"
    return call


def _chaos_node_out_of_range():
    return RuntimeConfig(
        num_nodes=2, faults=FaultConfig(enabled=True, node_crashes=((5, 1.0, "fail-stop"),))
    )


#: one row per rejection: (what to build, its keyword arguments, a substring
#: of the ConfigError message).  Every hand-written check of the
#: configuration has at least one row, so a rewrite of the checks that
#: loses one fails here.
REJECTIONS = [
    # HardwareSpec
    (HardwareSpec, {"gpus_per_node": 0}, "gpus_per_node"),
    (HardwareSpec, {"gpus_per_pcie_link": 0}, "gpus_per_pcie_link"),
    (HardwareSpec, {"gpus_per_node": 6, "gpus_per_pcie_link": 4}, "multiple of gpus_per_pcie_link"),
    *[(HardwareSpec, {name: 0}, name) for name in BANDWIDTHS],
    *[(HardwareSpec, {name: -1e-6}, name) for name in LATENCIES],
    (HardwareSpec, {"uvm_page_size": 0}, "page"),
    (HardwareSpec, {"uvm_fault_pages_per_group": 0}, "page"),
    # ScaleModel, and its two arithmetic checks
    (ScaleModel, {"data_scale": 0}, "data_scale"),
    (ScaleModel, {"time_scale": 0}, "time_scale"),
    (ScaleModel, {"time_scale": 1001.0}, "time_scale"),
    (ScaleModel, {"alignment": 0}, "alignment"),
    (ScaleModel, {"data_scale": 1024, "alignment": 1000}, "alignment"),
    (_scale_method("align", -1), {}, "negative size"),
    (_scale_method("payload_bytes", 1000), {}, "data_scale"),
    # CacheConfig
    (CacheConfig, {"gpu_cache_size": 0}, "gpu_cache_size"),
    (CacheConfig, {"host_cache_size": 0}, "host_cache_size"),
    # SchedConfig
    (SchedConfig, {"quantum_bytes": 0}, "quantum_bytes"),
    (SchedConfig, {"default_weight": 0}, "default_weight"),
    (SchedConfig, {"engine_weights": ((0, -1.0),)}, "engine_weights"),
    (SchedConfig, {"engine_weights": ((0,),)}, "engine_weights"),
    (SchedConfig, {"engine_rate_limit": 0.0}, "engine_rate_limit"),
    (SchedConfig, {"burst_bytes": 0}, "burst_bytes"),
    (SchedConfig, {"max_speculative_queue": -1}, "queue"),
    (SchedConfig, {"max_flush_queue": 0}, "queue"),
    (SchedConfig, {"max_flush_backlog": 0}, "max_flush_backlog"),
    (SchedConfig, {"admission": "drop"}, "admission"),
    (SchedConfig, {"hint_near_distance": -1}, "hint_near_distance"),
    (SchedConfig, {"hint_spacing_s": -0.1}, "hint_spacing_s"),
    # ReduceConfig
    (ReduceConfig, {"site": "cpu"}, "site"),
    (ReduceConfig, {"chunking": "rabin"}, "chunking"),
    (ReduceConfig, {"chunk_size": 0}, "chunk_size"),
    (ReduceConfig, {"min_chunk_size": 0}, "min"),
    (ReduceConfig, {"min_chunk_size": 16 * MiB}, "chunk bounds"),
    (ReduceConfig, {"max_chunk_size": 4 * MiB}, "chunk bounds"),
    (ReduceConfig, {"delta_threshold": 0.0}, "delta_threshold"),
    (ReduceConfig, {"delta_threshold": 1.5}, "delta_threshold"),
    (ReduceConfig, {"max_delta_chain": -1}, "max_delta_chain"),
    (ReduceConfig, {"chain_penalty": -0.1}, "chain_penalty"),
    (ReduceConfig, {"recipe_overhead": -1}, "recipe_overhead"),
    (ReduceConfig, {"codec": "brotli"}, "codec"),
    # StreamConfig
    (StreamConfig, {"stream_chunk_bytes": 0}, "stream_chunk_bytes"),
    (StreamConfig, {"ring_chunks": 1}, "ring_chunks"),
    # FaultConfig
    (FaultConfig, {"transfer_fault_rate": 1.5}, "transfer_fault_rate"),
    (FaultConfig, {"transfer_fault_rate": -0.1}, "transfer_fault_rate"),
    (FaultConfig, {"corruption_rate": 2.0}, "corruption_rate"),
    (FaultConfig, {"min_fault_fraction": 0.0}, "fraction"),
    (FaultConfig, {"max_fault_fraction": 1.0}, "fraction"),
    (FaultConfig, {"min_fault_fraction": 0.9, "max_fault_fraction": 0.5}, "fault fractions"),
    (FaultConfig, {"tier_outages": (("ssd", 1.0, 2.0),)}, "tier_outages"),
    (FaultConfig, {"tier_outages": (("nvme", 1.0, 2.0, 0.0),)}, "nvme"),
    (FaultConfig, {"tier_outages": (("ssd", 5.0, 1.0, 0.0),)}, "window"),
    (FaultConfig, {"tier_outages": (("ssd", -1.0, 2.0, 0.0),)}, "outage"),
    (FaultConfig, {"tier_outages": (("ssd", 1.0, 2.0, 1.5),)}, "factor"),
    (FaultConfig, {"crash_point": "during-lunch"}, "crash_point"),
    (FaultConfig, {"crash_point": "before-"}, "crash_point"),
    (FaultConfig, {"node_crashes": ((1, 1.0),)}, "node_crashes"),
    (FaultConfig, {"node_crashes": ((-1, 1.0, "fail-stop"),)}, "node_crashes"),
    (FaultConfig, {"node_crashes": ((1.5, 1.0, "fail-stop"),)}, "node_crashes"),
    (FaultConfig, {"node_crashes": ((1, -1.0, "fail-stop"),)}, "node_crashes"),
    (FaultConfig, {"node_crashes": ((1, 1.0, "meltdown"),)}, "mode"),
    (FaultConfig, {"node_rejoins": ((1,),)}, "node_rejoins"),
    (FaultConfig, {"node_rejoins": ((-1, 1.0),)}, "node_rejoins"),
    (FaultConfig, {"node_rejoins": ((1, -1.0),)}, "node_rejoins"),
    (FaultConfig, {"partitions": ((0, 1, 1.0),)}, "partitions"),
    (FaultConfig, {"partitions": ((0, -1, 1.0, 2.0),)}, "partitions"),
    (FaultConfig, {"partitions": ((1, 1, 0.0, 5.0),)}, "endpoints"),
    (FaultConfig, {"partitions": ((0, 1, 5.0, 1.0),)}, "window"),
    (FaultConfig, {"partitions": ((0, 1, -1.0, 2.0),)}, "partition"),
    # ResilienceConfig
    (ResilienceConfig, {"max_retries": -1}, "max_retries"),
    (ResilienceConfig, {"backoff_base_s": -0.5}, "backoff"),
    (ResilienceConfig, {"backoff_max_s": -0.5}, "backoff"),
    (ResilienceConfig, {"backoff_factor": 0.5}, "backoff_factor"),
    (ResilienceConfig, {"jitter": 1.5}, "jitter"),
    (ResilienceConfig, {"retry_classes": (("DEMAND_READ",),)}, "retry_classes"),
    (ResilienceConfig, {"retry_classes": (("DEMAND_READ", -2),)}, "retry_classes"),
    (ResilienceConfig, {"breaker_threshold": 0}, "breaker_threshold"),
    (ResilienceConfig, {"breaker_reset_s": -1.0}, "breaker_reset_s"),
    # SloConfig
    (SloConfig, {"durability_target_s": 0.0}, "target"),
    (SloConfig, {"restore_target_s": -1.0}, "target"),
    (SloConfig, {"min_samples": 0}, "min_samples"),
    (SloConfig, {"objective": 1.0}, "objective"),
    (SloConfig, {"window_s": 0.0}, "window_s"),
    (SloConfig, {"burn_rate_threshold": 0.0}, "burn_rate_threshold"),
    # ClusterConfig
    (ClusterConfig, {"replica_factor": 0}, "replica_factor"),
    (ClusterConfig, {"peer_bandwidth": 0.0}, "peer_bandwidth"),
    (ClusterConfig, {"aggregation_window_s": -0.001}, "aggregation_window_s"),
    (ClusterConfig, {"aggregation_max_ops": 0}, "aggregation_max_ops"),
    (ClusterConfig, {"aggregation_max_bytes": 0}, "aggregation_max_bytes"),
    (ClusterConfig, {"service_max_sessions": 0}, "service_max_sessions"),
    (ClusterConfig, {"service_queue_depth": 0}, "service_queue_depth"),
    (ClusterConfig, {"service_rpc_latency_s": -1e-6}, "service_rpc_latency_s"),
    (ClusterConfig, {"repair_interval_s": 0.0}, "repair_interval_s"),
    (ClusterConfig, {"repair_class": "FOREGROUND_WRITE"}, "repair_class"),
    (ClusterConfig, {"repair_max_inflight": 0}, "repair_max_inflight"),
    # PredictConfig
    (PredictConfig, {"predictor": "oracle"}, "predictor"),
    (PredictConfig, {"history_capacity": 0}, "history_capacity"),
    (PredictConfig, {"max_queue": 0}, "max_queue"),
    (PredictConfig, {"min_confidence": 1.5}, "min_confidence"),
    (PredictConfig, {"refresh_interval_s": -1.0}, "refresh_interval_s"),
    (PredictConfig, {"hit_floor": 1.0}, "hit_floor"),
    (PredictConfig, {"min_samples": 0}, "min_samples"),
    (PredictConfig, {"suspend_s": 0.0}, "suspend_s"),
    (PredictConfig, {"ewma_alpha": 0.0}, "ewma_alpha"),
    # RuntimeConfig
    (RuntimeConfig, {"num_nodes": 0}, "num_nodes"),
    (RuntimeConfig, {"telemetry_buffer": 0}, "telemetry_buffer"),
    (RuntimeConfig, {"processes_per_node": 9}, "processes_per_node"),
    (RuntimeConfig, {"processes_per_node": 0}, "processes_per_node"),
    (RuntimeConfig, {"eviction_policy": "random"}, "eviction_policy"),
    (RuntimeConfig, {"flush_wait_timeout": 0.0}, "flush_wait_timeout"),
    (
        RuntimeConfig,
        {"num_nodes": 2, "cluster": ClusterConfig(enabled=True, replica_factor=3)},
        "replica_factor",
    ),
    (_chaos_node_out_of_range, {}, "num_nodes"),
]


def _row_id(row):
    build, kwargs, _ = row
    return "-".join([build.__name__, *kwargs])


@pytest.mark.parametrize("build,kwargs,match", REJECTIONS, ids=[_row_id(r) for r in REJECTIONS])
def test_every_rejection_names_what_is_wrong(build, kwargs, match):
    with pytest.raises(ConfigError, match=match):
        build(**kwargs)


def test_the_table_covers_every_configuration_class():
    assert {row[0] for row in REJECTIONS} >= set(CONFIG_CLASSES) - {AnalysisConfig}
    declared = {
        obj for obj in vars(config_module).values()
        if dataclasses.is_dataclass(obj) and isinstance(obj, type)
    }
    assert declared == set(CONFIG_CLASSES)


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_every_default_constructs(cls):
    assert cls() == cls()


@pytest.mark.parametrize("value", ["ssd", ["ssd"]], ids=["str", "list"])
@pytest.mark.parametrize(
    "cls,name",
    [
        (FaultConfig, "fault_links"),
        (FaultConfig, "tier_outages"),
        (FaultConfig, "node_crashes"),
        (FaultConfig, "node_rejoins"),
        (FaultConfig, "partitions"),
        (SchedConfig, "engine_weights"),
        (ResilienceConfig, "retry_classes"),
    ],
)
def test_a_tuple_knob_takes_only_a_tuple(cls, name, value):
    # A str iterates its characters: fault_links="ssd" would match every
    # link whose name holds an "s" or a "d".
    with pytest.raises(ConfigError, match=name):
        cls(**{name: value})


def test_a_misspelt_retry_class_is_rejected():
    with pytest.raises(ConfigError, match="retry_classes"):
        ResilienceConfig(retry_classes=(("CASCADE_FLUSHH", 0),))
    every_class = ("DEMAND_READ", "FOREGROUND_WRITE", "HINTED_PREFETCH",
                   "CASCADE_FLUSH", "SPECULATIVE_PREFETCH")
    cfg = ResilienceConfig(retry_classes=tuple((name, 1) for name in every_class))
    assert cfg.retries_for("CASCADE_FLUSH") == 1


class TestHardwareSpec:
    def test_defaults_are_paper_values(self):
        spec = HardwareSpec()
        assert spec.gpus_per_node == 8
        assert spec.gpus_per_pcie_link == 2
        assert spec.d2d_bandwidth == pytest.approx(1024 * GiB)
        assert spec.d2h_bandwidth == pytest.approx(25 * GiB)
        assert spec.host_pin_bandwidth == pytest.approx(4 * GiB)

    def test_pcie_links_per_node(self):
        assert HardwareSpec().pcie_links_per_node == 4

    def test_gpus_must_divide_links(self):
        with pytest.raises(ConfigError):
            HardwareSpec(gpus_per_node=6, gpus_per_pcie_link=4)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            HardwareSpec(d2h_bandwidth=-1)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            HardwareSpec(transfer_latency=-1e-6)

    def test_zero_gpus_rejected(self):
        with pytest.raises(ConfigError):
            HardwareSpec(gpus_per_node=0)

    def test_uvm_params_validated(self):
        with pytest.raises(ConfigError):
            HardwareSpec(uvm_page_size=0)


class TestScaleModel:
    def test_align_rounds_up(self):
        s = ScaleModel(alignment=64 * KiB)
        assert s.align(1) == 64 * KiB
        assert s.align(64 * KiB) == 64 * KiB
        assert s.align(64 * KiB + 1) == 128 * KiB

    def test_align_zero_gives_one_unit(self):
        s = ScaleModel(alignment=64 * KiB)
        assert s.align(0) == 64 * KiB

    def test_align_negative_rejected(self):
        with pytest.raises(ConfigError):
            ScaleModel().align(-1)

    def test_payload_bytes(self):
        s = ScaleModel(data_scale=1024, alignment=1024)
        assert s.payload_bytes(2048) == 2

    def test_payload_bytes_requires_alignment(self):
        s = ScaleModel(data_scale=1024, alignment=1024)
        with pytest.raises(ConfigError):
            s.payload_bytes(1000)

    def test_alignment_must_be_multiple_of_data_scale(self):
        with pytest.raises(ConfigError):
            ScaleModel(data_scale=1024, alignment=1000)

    def test_data_scale_positive(self):
        with pytest.raises(ConfigError):
            ScaleModel(data_scale=0)

    def test_time_scale_range(self):
        with pytest.raises(ConfigError):
            ScaleModel(time_scale=0)

    def test_bench_scale_consistency(self):
        # 128 MiB checkpoints map onto whole payload bytes.
        assert BENCH_SCALE.payload_bytes(128 * MiB) * BENCH_SCALE.data_scale == 128 * MiB


class TestCacheConfig:
    def test_defaults_match_paper(self):
        c = CacheConfig()
        assert c.gpu_cache_size == 4 * GiB
        assert c.host_cache_size == 32 * GiB

    def test_of_parses_strings(self):
        c = CacheConfig.of("4GB", "32GB")
        assert c.gpu_cache_size == 4 * GiB

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(gpu_cache_size=0)


class TestRuntimeConfig:
    def test_total_processes(self):
        cfg = RuntimeConfig(num_nodes=2)
        assert cfg.total_processes == 16

    def test_processes_per_node_override(self):
        cfg = RuntimeConfig(processes_per_node=3)
        assert cfg.effective_processes_per_node == 3
        assert cfg.total_processes == 3

    def test_processes_per_node_bounded(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(processes_per_node=9)

    def test_nodes_positive(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(num_nodes=0)

    def test_eviction_policy_validated(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(eviction_policy="random")

    def test_with_returns_modified_copy(self):
        cfg = RuntimeConfig()
        other = cfg.with_(num_nodes=2)
        assert other.num_nodes == 2 and cfg.num_nodes == 1

    def test_bench_config(self):
        cfg = bench_config(num_nodes=2)
        assert cfg.scale is BENCH_SCALE
        assert cfg.num_nodes == 2
