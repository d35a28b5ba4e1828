"""The ledger's six workloads: what each feeds the runtime and why.

``--seed`` drives snapshot sizes, restore permutations and payload bytes;
the runtime only ever sees the generated inputs.  Every workload is a
closed loop of two client threads with the paper's 10 ms compute interval
between operations, the Score runtime, the paper ``HardwareSpec`` and
``data_scale = 512 KiB``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from clocks import HOST_METRICS, NOMINAL_METRICS

from repro.config import (
    AnalysisConfig,
    CacheConfig,
    ClusterConfig,
    ReduceConfig,
    ResilienceConfig,
    RuntimeConfig,
    ScaleModel,
    SchedConfig,
    StreamConfig,
)
from repro.harness.experiment import scaled_caches
from repro.util.rng import make_rng
from repro.util.units import GiB, KiB, MiB
from repro.workloads.patterns import RestoreOrder, restore_order
from repro.workloads.rtm import RtmTrace, uniform_trace, variable_trace
from repro.workloads.shot import HintMode, ShotSpec

#: Sleep-dominated: host bookkeeping does not leak into the wall-scaled
#: virtual clock (medians of 3 agree within 3 %; at 0.1 they do not agree
#: within 50 %).
NOMINAL_TIME_SCALE = 0.5
#: Simulated waits vanish, wall time is the simulator's own cost.
HOST_TIME_SCALE = 0.002

COMPUTE_INTERVAL = 0.010
CLIENT_THREADS = 2
PROBES = 12
PROBE_BYTES = 128 * MiB

DURABLE_METRICS = ("durable_gibs", "durable_latency_p50_ms")


def scale_model(time_scale: float) -> ScaleModel:
    """The one place a ``ScaleModel`` is built.

    ``time_scale`` is passed only while ``ScaleModel`` still has the field,
    so deleting the wall-scaled clock (ROADMAP item 1) needs no edit here.
    """
    kwargs = {"data_scale": 512 * KiB, "alignment": 512 * KiB}
    if any(f.name == "time_scale" for f in dataclasses.fields(ScaleModel)):
        kwargs["time_scale"] = time_scale
    return ScaleModel(**kwargs)


@dataclass(frozen=True)
class Plan:
    """One workload's generated inputs, ready to hand to the runtime."""

    config: RuntimeConfig
    engine_kwargs: Dict[str, object]
    #: one ``ShotSpec`` per rank (shot workloads); empty for ``cluster_peer``.
    specs: Tuple[ShotSpec, ...] = ()
    #: ``cluster_peer``: per-session restore permutations and payload seed.
    session_orders: Tuple[Tuple[int, ...], ...] = ()
    session_bytes: int = 0
    seed: int = 0
    probes: int = PROBES


@dataclass(frozen=True)
class Workload:
    name: str
    #: the end-to-end metrics this workload was chosen for; the others are
    #: measured by the same definitions but are not what it is read for.
    headline: Tuple[str, ...]
    build: Callable[[int, bool], Plan]
    #: where ``build`` runs on a time scale that makes the virtual clock a
    #: magnified wall clock: the same inputs, cut short, on the nominal
    #: scale, for when the virtual-clock metrics are wanted all the same.
    nominal_echo: Optional[Callable[[int, bool], Plan]] = None


def _exact_total(trace: RtmTrace, total: int, scale: ScaleModel) -> RtmTrace:
    """Rescale a variable trace so every rank and seed moves the same bytes
    (``variable_trace`` spreads per-rank totals lognormally, which would
    make throughput a function of the seed)."""
    factor = total / trace.total_bytes
    sizes = [scale.align(int(size * factor)) for size in trace.sizes]
    sizes[-1] = scale.align(max(scale.alignment, sizes[-1] + total - sum(sizes)))
    return RtmTrace(rank=trace.rank, sizes=tuple(sizes))


def _shot_plan(
    name: str,
    seed: int,
    *,
    snapshots: int,
    snapshot_bytes: int,
    time_scale: float,
    variable: bool = False,
    hint_mode: HintMode,
    order: RestoreOrder,
    wait_for_flush: bool,
    similarity: float = 0.0,
    features: Optional[dict] = None,
    probes: int = PROBES,
) -> Plan:
    scale = scale_model(time_scale)
    total = snapshots * snapshot_bytes
    config = RuntimeConfig(
        scale=scale,
        cache=scaled_caches(total),
        num_nodes=1,
        processes_per_node=CLIENT_THREADS,  # ranks 0 and 1 share one PCIe pair
        **(features or {}),
    )
    specs = []
    for rank in range(CLIENT_THREADS):
        if variable:
            trace = _exact_total(
                variable_trace(
                    scale, rank=rank, seed=seed, num_snapshots=snapshots, total_bytes=total
                ),
                total,
                scale,
            )
        else:
            trace = uniform_trace(scale, num_snapshots=snapshots, size=snapshot_bytes, rank=rank)
        specs.append(
            ShotSpec(
                trace=trace,
                restore_order=restore_order(order, snapshots, seed=seed, rank=rank),
                hint_mode=hint_mode,
                compute_interval=COMPUTE_INTERVAL,
                wait_for_flush=wait_for_flush,
                similarity=similarity,
                seed=seed,
            )
        )
    engine_kwargs: Dict[str, object] = (
        {"flush_to_pfs": True} if wait_for_flush else {"discard_consumed": True}
    )
    return Plan(
        config=config,
        engine_kwargs=engine_kwargs,
        specs=tuple(specs),
        seed=seed,
        probes=probes,
    )


def _adjoint_hinted(seed: int, quick: bool) -> Plan:
    return _shot_plan(
        "adjoint_hinted",
        seed,
        snapshots=48 if quick else 384,
        snapshot_bytes=128 * MiB,
        time_scale=NOMINAL_TIME_SCALE,
        variable=True,
        hint_mode=HintMode.ALL,
        order=RestoreOrder.REVERSE,
        wait_for_flush=False,
        probes=2 if quick else PROBES,
    )


def _durable(name: str, seed: int, quick: bool, **kwargs) -> Plan:
    return _shot_plan(
        name,
        seed,
        snapshots=16 if quick else 96,
        snapshot_bytes=128 * MiB,
        time_scale=NOMINAL_TIME_SCALE,
        hint_mode=HintMode.NONE,
        order=RestoreOrder.IRREGULAR,
        wait_for_flush=True,
        probes=2 if quick else PROBES,
        **kwargs,
    )


def _durable_demand(seed: int, quick: bool) -> Plan:
    return _durable("durable_demand", seed, quick)


def _transport_on(seed: int, quick: bool) -> Plan:
    return _durable(
        "transport_on",
        seed,
        quick,
        features={
            "sched": SchedConfig(enabled=True),
            "stream": StreamConfig(enabled=True),
            "resilience": ResilienceConfig(enabled=True),
            "telemetry": True,
            "analysis": AnalysisConfig(enabled=True),
        },
    )


def _reduce_on(seed: int, quick: bool) -> Plan:
    return _durable(
        "reduce_on",
        seed,
        quick,
        similarity=0.5,
        features={"reduce": ReduceConfig(enabled=True)},
    )


def _host_hot(seed: int, quick: bool, echo: bool = False) -> Plan:
    snapshots = 128 if echo else 1024
    return _shot_plan(
        "host_hot",
        seed,
        snapshots=snapshots // 4 if quick else snapshots,
        snapshot_bytes=8 * MiB,
        time_scale=NOMINAL_TIME_SCALE if echo else HOST_TIME_SCALE,
        hint_mode=HintMode.ALL,
        order=RestoreOrder.REVERSE,
        wait_for_flush=False,
        probes=2 if quick else PROBES,
    )


CLUSTER_NODES = 4
CLUSTER_SESSIONS = 2 * CLIENT_THREADS
#: restores land two nodes round the ring: neither the home SSD nor its
#: ring-successor replica is local, so every read crosses the fabric.
CLUSTER_NODE_SHIFT = 2


def _cluster_peer(seed: int, quick: bool) -> Plan:
    per_session = 4 if quick else 32
    config = RuntimeConfig(
        scale=scale_model(NOMINAL_TIME_SCALE),
        cache=CacheConfig(gpu_cache_size=512 * MiB, host_cache_size=2 * GiB),
        num_nodes=CLUSTER_NODES,
        processes_per_node=1,
        cluster=ClusterConfig(enabled=True, peer_reads=True, replica_factor=2),
    )
    orders = []
    for session in range(CLUSTER_SESSIONS):
        order = list(range(per_session))
        make_rng(seed, "ledger-session-order", session).shuffle(order)
        orders.append(tuple(order))
    return Plan(
        config=config,
        engine_kwargs={"flush_to_pfs": True},
        session_orders=tuple(orders),
        session_bytes=128 * MiB,
        seed=seed,
        probes=2 if quick else PROBES,
    )


_ALL = NOMINAL_METRICS + HOST_METRICS

#: why each workload exists is told once, in BENCHMARK.json and the README
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "adjoint_hinted",
            headline=tuple(m for m in _ALL if m not in DURABLE_METRICS),
            build=_adjoint_hinted,
        ),
        Workload("durable_demand", headline=_ALL, build=_durable_demand),
        Workload("transport_on", headline=_ALL, build=_transport_on),
        Workload("reduce_on", headline=_ALL, build=_reduce_on),
        Workload(
            "cluster_peer",
            headline=tuple(m for m in _ALL if m != "durable_latency_p50_ms"),
            build=_cluster_peer,
        ),
        Workload(
            "host_hot",
            headline=HOST_METRICS,
            build=_host_hot,
            nominal_echo=partial(_host_hot, echo=True),
        ),
    )
}


def probe_config(config: RuntimeConfig) -> RuntimeConfig:
    """The workload's flags on a one-engine cluster (durability probes).

    Probes always run on the nominal time scale: a 150 ms cascade is three
    thread hand-offs long, which at ``HOST_TIME_SCALE`` is pure noise.
    """
    return config.with_(
        scale=scale_model(NOMINAL_TIME_SCALE),
        processes_per_node=1,
    )
