"""One experiment = one cluster + one approach + one workload + one order.

The shipped experiments run at a reduced *iteration count* but preserve the
paper's capacity ratios: the paper's 384 × 128 MB = 48 GB working set over a
4 GB GPU cache and 32 GB host cache holds 1/12 of the shot on the GPU and
8/12 in host memory; :func:`scaled_caches` reproduces those fractions for
any snapshot count, so eviction pressure, SSD spill volume and prefetch
horizons all match the paper's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.analysis.report import analyze_events
from repro.config import CacheConfig, RuntimeConfig, bench_config
from repro.errors import ConfigError
from repro.harness.approaches import Approach, make_engine_factory
from repro.metrics.throughput import ThroughputSummary, throughput
from repro.tiers.topology import Cluster
from repro.util.units import MiB
from repro.workloads.patterns import RestoreOrder, restore_order
from repro.workloads.rtm import RtmTrace, uniform_trace, variable_trace
from repro.workloads.shot import ShotResult, ShotSpec
from repro.workloads.multiproc import run_multiprocess_shot

#: Paper capacity ratios (Section 5.3.4): GPU cache holds 1/12 of the shot,
#: host cache 8/12.
GPU_CACHE_FRACTION = 4.0 / 48.0
HOST_CACHE_FRACTION = 32.0 / 48.0


def scaled_caches(total_per_rank: int) -> CacheConfig:
    """Cache sizes preserving the paper's working-set ratios."""
    return CacheConfig(
        gpu_cache_size=max(1, int(total_per_rank * GPU_CACHE_FRACTION)),
        host_cache_size=max(1, int(total_per_rank * HOST_CACHE_FRACTION)),
    )


@dataclass(frozen=True)
class Experiment:
    """A fully-specified run."""

    approach: Approach
    workload: str = "uniform"  # "uniform" | "variable"
    order: RestoreOrder = RestoreOrder.REVERSE
    #: 192 snapshots of the paper's 128 MB ≈ half a shot; the caches scale
    #: with the working set (scaled_caches) so the *slot counts* the
    #: eviction dynamics depend on stay proportional (16 GPU slots at
    #: n=192, the paper's 32 at n=384), while every bandwidth, size and
    #: interval stays at its paper-nominal value.
    num_snapshots: int = 192
    snapshot_size: int = 128 * MiB  # uniform workload
    total_per_rank: Optional[int] = None  # variable workload (default: n*size)
    compute_interval: float = 0.010
    wait_for_flush: bool = False
    tightly_coupled: bool = False
    num_nodes: int = 1
    processes_per_node: int = 8
    cache: Optional[CacheConfig] = None  # default: scaled_caches
    config: Optional[RuntimeConfig] = None  # default: bench_config
    seed: int = 7
    #: irregular order: same permutation for all ranks? (paper: predetermined
    #: per process; we give each rank its own, seeded deterministically)
    per_rank_orders: bool = True

    def with_(self, **changes) -> "Experiment":
        return replace(self, **changes)

    @property
    def label(self) -> str:
        return (
            f"{self.approach.label} / {self.workload} / {self.order.value}"
            f"{' / WAIT' if self.wait_for_flush else ''}"
        )


@dataclass
class ExperimentResult:
    experiment: Experiment
    summary: ThroughputSummary
    shots: List[ShotResult] = field(default_factory=list)
    #: telemetry registry snapshot taken at the end of the run (always
    #: present — the metrics registry is live even when tracing is off).
    metrics: Dict[str, object] = field(default_factory=dict)
    #: causal attribution report (:func:`repro.analysis.report.analyze_events`)
    #: — present only when the experiment ran with ``analysis.enabled`` and
    #: the trace bus on.
    attribution: Optional[dict] = None

    @property
    def checkpoint_rate(self) -> float:
        return self.summary.checkpoint

    @property
    def restore_rate(self) -> float:
        return self.summary.restore


def _build_traces(exp: Experiment, num_processes: int) -> List[RtmTrace]:
    scale = _runtime_config(exp).scale
    if exp.workload == "uniform":
        return [
            uniform_trace(scale, num_snapshots=exp.num_snapshots, size=exp.snapshot_size, rank=r)
            for r in range(num_processes)
        ]
    if exp.workload == "variable":
        total = exp.total_per_rank or exp.num_snapshots * exp.snapshot_size
        return [
            variable_trace(
                scale, rank=r, seed=exp.seed, num_snapshots=exp.num_snapshots, total_bytes=total
            )
            for r in range(num_processes)
        ]
    raise ConfigError(f"unknown workload {exp.workload!r}")


def _runtime_config(exp: Experiment) -> RuntimeConfig:
    cfg = exp.config or bench_config()
    cache = exp.cache or scaled_caches(exp.num_snapshots * exp.snapshot_size)
    return cfg.with_(
        cache=cache,
        num_nodes=exp.num_nodes,
        processes_per_node=exp.processes_per_node,
    )


def run_experiment(exp: Experiment) -> ExperimentResult:
    """Run one experiment end to end and aggregate its throughput."""
    cfg = _runtime_config(exp)
    num_processes = cfg.total_processes
    traces = _build_traces(exp, num_processes)
    specs = []
    for rank, trace in enumerate(traces):
        order = restore_order(
            exp.order,
            len(trace),
            seed=exp.seed,
            rank=rank if exp.per_rank_orders else 0,
        )
        specs.append(
            ShotSpec(
                trace=trace,
                restore_order=order,
                hint_mode=exp.approach.hint_mode,
                compute_interval=exp.compute_interval,
                wait_for_flush=exp.wait_for_flush,
                seed=exp.seed,
            )
        )
    engine_kwargs = {}
    if exp.approach.runtime == "score" and not exp.wait_for_flush:
        # §5.4.3 (adjoint scenario): checkpoints need not be persisted, so
        # consumed checkpoints are discarded and their flushes abandoned
        # (condition (5)); unconsumed overflow still reaches the SSD.
        engine_kwargs["discard_consumed"] = True
    factory = make_engine_factory(exp.approach.runtime, **engine_kwargs)
    with Cluster(cfg) as cluster:
        shots = run_multiprocess_shot(
            cluster, factory, specs, tightly_coupled=exp.tightly_coupled
        )
        metrics = cluster.telemetry.registry.snapshot()
        attribution = None
        if cfg.analysis.enabled and cluster.telemetry.bus.enabled:
            attribution = analyze_events(
                cluster.telemetry.bus.snapshot(), slo=cfg.analysis.slo
            )
    summary = throughput([s.recorder for s in shots])
    return ExperimentResult(
        experiment=exp,
        summary=summary,
        shots=shots,
        metrics=metrics,
        attribution=attribution,
    )
