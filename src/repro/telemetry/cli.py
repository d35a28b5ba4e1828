"""``python -m repro trace <workload>`` — run a traced workload and export.

Runs one shot (or a small multi-process grid) with the trace bus enabled and
writes three artifacts under ``--out-dir``:

* ``<workload>.trace.json`` — Chrome trace-event JSON.  Open it at
  https://ui.perfetto.dev (or ``chrome://tracing``): one process group per
  rank plus a "cluster" group for the shared SSD/PFS stores, one timeline
  per component (app, lifecycle, flush stages, prefetcher, tiers).
* ``<workload>.events.jsonl`` — the raw event log, one JSON object per line.
* ``<workload>.summary.txt`` — the metrics-registry digest (also printed).
* ``<workload>.sched.txt`` — with ``--sched``, the per-link queue-depth and
  preemption timelines of the QoS transfer scheduler (also printed).
* ``<workload>.reduce.txt`` — with ``--reduce``, the per-checkpoint logical
  vs physical bytes, dedup hit rate and delta-chain depths of the data
  reduction pipeline (also printed).

Workloads: ``quickstart`` (16 × 128 MiB, one rank, reverse order),
``uniform`` and ``variable`` (the paper's RTM traces, multi-rank),
``kvcache`` (LLM-serving suspend/resume; ``--snapshots`` = activations)
and ``revolve`` (binomial adjoint checkpointing; ``--snapshots`` = forward
steps) — the last two are single-rank and honour ``--predict``:

* ``hints``   — oracle restore hints (the default; unchanged behaviour),
* ``learned`` — no hints, online access-pattern prediction enabled,
* ``none``    — no hints, demand-only promotion.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
from typing import List, Optional, Sequence

from repro.config import (
    AnalysisConfig,
    CacheConfig,
    ClusterConfig,
    FaultConfig,
    HardwareSpec,
    ReduceConfig,
    ResilienceConfig,
    SchedConfig,
    SloConfig,
    StreamConfig,
    bench_config,
)
from repro.errors import ConfigError, InjectedCrash
from repro.harness.prediction import PREDICT_MODES
from repro.log import enable_console_logging
from repro.telemetry.exporters import render_summary, write_chrome_trace, write_jsonl
from repro.util.units import MiB
from repro.workloads.kvcache import KvCacheSpec
from repro.workloads.patterns import RestoreOrder, restore_order
from repro.workloads.revolve import RevolveSpec
from repro.workloads.rtm import uniform_trace, variable_trace
from repro.workloads.shot import HintMode, ShotSpec

#: (snapshots, processes) defaults per workload — sized so a trace run
#: finishes in seconds while still exercising eviction and prefetching.
#: For ``kvcache`` the first number is session activations; for
#: ``revolve`` it is forward steps (both are single-rank drivers).
_DEFAULTS = {
    "quickstart": (16, 1),
    "uniform": (48, 2),
    "variable": (48, 2),
    "kvcache": (96, 1),
    "revolve": (24, 1),
}

#: the single-rank drivers that honour ``--predict`` natively.
_PREDICTED = ("kvcache", "revolve")


def _build_specs(
    workload: str,
    cfg,
    snapshots: int,
    processes: int,
    order: RestoreOrder,
    seed: int,
    similarity: float = 0.0,
    hint_mode: HintMode = HintMode.ALL,
) -> List[ShotSpec]:
    scale = cfg.scale
    specs: List[ShotSpec] = []
    for rank in range(processes):
        if workload == "variable":
            trace = variable_trace(scale, rank=rank, seed=seed, num_snapshots=snapshots)
        else:
            trace = uniform_trace(scale, num_snapshots=snapshots, size=128 * MiB, rank=rank)
        specs.append(
            ShotSpec(
                trace=trace,
                restore_order=restore_order(order, len(trace), seed=seed, rank=rank),
                hint_mode=hint_mode,
                compute_interval=0.010,
                similarity=similarity,
                seed=seed,
            )
        )
    return specs


def _predicted_spec(workload: str, snapshots: int, seed: int):
    """The kvcache/revolve spec a trace run derives from ``--snapshots``."""
    if workload == "kvcache":
        return KvCacheSpec(
            sessions=max(4, snapshots // 6), events=snapshots, seed=seed
        )
    return RevolveSpec(
        steps=snapshots, snapshots=max(2, snapshots // 6), seed=seed
    )


def _render_predict_summary(workload: str, predict: str, result) -> str:
    """One paragraph on the workload outcome + speculation accuracy."""
    from repro.harness.prediction import percentile, speculation_stats
    from repro.util.units import format_size

    lats = result.restore_latencies
    lines = [
        f"{workload} ({predict}): {len(lats)} restores "
        f"({result.verified} verified), demand p50 "
        f"{percentile(lats, 0.50):.4f}s / p99 {percentile(lats, 0.99):.4f}s, "
        f"wall {result.wall_s:.2f}s"
    ]
    spec_stats = speculation_stats(result)
    if spec_stats is not None:
        val = spec_stats.get("validation") or {}
        hit_rate = val.get("hit_rate")
        lines.append(
            "speculation: "
            f"{spec_stats.get('spec_prefetches', 0)} speculative promotions, "
            f"hit rate {'n/a' if hit_rate is None else hit_rate}, "
            f"wasted {format_size(int(val.get('wasted_bytes', 0)))}, "
            f"{int(val.get('suspensions', 0))} suspensions"
        )
    return "\n".join(lines)


def run_trace(
    workload: str,
    out_dir: str = "traces",
    snapshots: Optional[int] = None,
    processes: Optional[int] = None,
    order: RestoreOrder = RestoreOrder.REVERSE,
    seed: int = 7,
    sched: bool = False,
    reduce: bool = False,
    stream: bool = False,
    similarity: float = 0.9,
    faults: Optional[FaultConfig] = None,
    resilient: bool = False,
    analysis: bool = False,
    slo: Optional[SloConfig] = None,
    hardware: Optional[HardwareSpec] = None,
    predict: str = "hints",
    cluster_nodes: Optional[int] = None,
) -> dict:
    """Run ``workload`` with tracing on; return the written paths."""
    from repro.harness.approaches import make_engine_factory
    from repro.harness.experiment import scaled_caches
    from repro.harness.prediction import apply_predict_mode
    from repro.tiers.topology import Cluster
    from repro.workloads.multiproc import run_multiprocess_shot

    if workload not in _DEFAULTS:
        raise ConfigError(
            f"unknown workload {workload!r}; choose from {sorted(_DEFAULTS)}"
        )
    default_snapshots, default_processes = _DEFAULTS[workload]
    snapshots = snapshots or default_snapshots
    processes = processes or default_processes
    if workload in _PREDICTED and processes != 1:
        raise ConfigError(f"{workload} is a single-rank driver; --processes 1")
    cfg = bench_config(telemetry=True, processes_per_node=processes)
    if cluster_nodes is not None:
        if workload in _PREDICTED:
            raise ConfigError(f"{workload} is single-rank; --cluster needs a grid")
        if cluster_nodes < 2:
            raise ConfigError("--cluster needs at least 2 nodes")
        if processes % cluster_nodes != 0:
            raise ConfigError(
                f"--processes {processes} does not divide across "
                f"--cluster {cluster_nodes} nodes"
            )
        cfg = cfg.with_(
            num_nodes=cluster_nodes,
            processes_per_node=processes // cluster_nodes,
            cluster=ClusterConfig(enabled=True),
        )
    if hardware is not None:
        cfg = cfg.with_(hardware=hardware)
    if sched:
        cfg = cfg.with_(sched=SchedConfig(enabled=True))
    if reduce:
        cfg = cfg.with_(reduce=ReduceConfig(enabled=True))
    if stream:
        cfg = cfg.with_(stream=StreamConfig(enabled=True))
    if faults is not None:
        cfg = cfg.with_(faults=faults)
    if resilient:
        cfg = cfg.with_(resilience=ResilienceConfig(enabled=True))
    if analysis:
        cfg = cfg.with_(analysis=AnalysisConfig(enabled=True, slo=slo or SloConfig()))
    cfg = apply_predict_mode(cfg, predict)
    predict_rendered: Optional[str] = None
    if workload in _PREDICTED:
        from repro.harness.prediction import run_predicted, serving_caches

        spec = _predicted_spec(workload, snapshots, seed)
        cfg = cfg.with_(cache=serving_caches(cfg, spec))
        result, telemetry = run_predicted(cfg, spec, predict)
        predict_rendered = _render_predict_summary(workload, predict, result)
    else:
        specs = _build_specs(
            workload,
            cfg,
            snapshots,
            processes,
            order,
            seed,
            similarity=similarity if reduce else 0.0,
            hint_mode=HintMode.ALL if predict == "hints" else HintMode.NONE,
        )
        # Scale the caches to the actual working set (paper ratios), but
        # never below twice the largest single snapshot — a short
        # variable-size trace can have one snapshot bigger than the
        # ratio-derived GPU cache.
        total = max(spec.trace.total_bytes for spec in specs)
        floor = 2 * cfg.scale.align(max(max(spec.trace.sizes) for spec in specs))
        ratio = scaled_caches(total)
        cfg = cfg.with_(
            cache=CacheConfig(
                gpu_cache_size=max(ratio.gpu_cache_size, floor),
                host_cache_size=max(ratio.host_cache_size, floor),
            )
        )
        factory = make_engine_factory("score")
        with Cluster(cfg) as cluster:
            try:
                run_multiprocess_shot(cluster, factory, specs)
            except InjectedCrash:
                # A scheduled node crash killed those ranks mid-shot; the
                # survivors ran to completion and their telemetry (plus the
                # node-death instants) is what the trace is for.
                pass
            fabric = cluster.fabric
            if fabric is not None and fabric.membership.active:
                # The anti-entropy repairer applies any node events the shot
                # ran past, then settles the replica factor so its spans
                # land in the trace.
                fabric.repairer.run()
            telemetry = cluster.telemetry

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"{workload}.trace.json")
    jsonl_path = os.path.join(out_dir, f"{workload}.events.jsonl")
    summary_path = os.path.join(out_dir, f"{workload}.summary.txt")
    events = telemetry.bus.snapshot()
    write_chrome_trace(trace_path, events, telemetry.registry)
    write_jsonl(jsonl_path, events)
    summary = render_summary(
        telemetry.registry,
        telemetry.bus,
        title=f"telemetry summary: {workload} ({snapshots} snapshots, {processes} ranks)",
    )
    with open(summary_path, "w") as fh:
        fh.write(summary + "\n")
    out = {
        "trace": trace_path,
        "jsonl": jsonl_path,
        "summary": summary_path,
        "events": len(events),
        "rendered": summary,
    }
    reports = {}
    if predict_rendered is not None:
        reports["predict"] = predict_rendered
    if sched:
        from repro.sched import render_sched_timeline, sched_events

        reports["sched"] = render_sched_timeline(sched_events(events))
    if reduce:
        from repro.reduce import reduce_events, render_reduce_report

        reports["reduce"] = render_reduce_report(reduce_events(events))
    for kind, text in reports.items():
        path = os.path.join(out_dir, f"{workload}.{kind}.txt")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        out[kind], out[f"{kind}_rendered"] = path, text
    return out


# The fault-spec parsers below read only a spec's shape (split, int/float;
# a malformed one is an argparse usage error), one entry of a tuple field.
# What the values may be — tier names, window order, factor range, crash
# modes, node ids — is FaultConfig's to check: faults_from_args runs inside
# both mains' ``try``, which turns its ConfigError into exit 2.
def _parse_outage(spec: str):
    """``tier:start:end[:factor]`` -> a ``FaultConfig.tier_outages`` entry
    (factor defaults to 0.0, a hard outage)."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"expected tier:start:end[:factor], got {spec!r}"
        )
    tier = parts[0]
    try:
        start, end = float(parts[1]), float(parts[2])
        factor = float(parts[3]) if len(parts) == 4 else 0.0
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{spec!r}: {exc}")
    return (tier, start, end, factor)


def _parse_node_crash(spec: str):
    """``NODE@TIME[:MODE]`` -> a ``FaultConfig.node_crashes`` entry
    (mode defaults to ``fail-stop``; ``power-loss`` preserves the SSD)."""
    head, sep, mode = spec.partition(":")
    mode = mode if sep else "fail-stop"
    node_s, sep, time_s = head.partition("@")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected NODE@TIME[:MODE], got {spec!r}"
        )
    try:
        node, time = int(node_s), float(time_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{spec!r}: {exc}")
    return (node, time, mode)


def _parse_node_rejoin(spec: str):
    """``NODE@TIME`` -> a ``FaultConfig.node_rejoins`` entry."""
    node_s, sep, time_s = spec.partition("@")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected NODE@TIME, got {spec!r}")
    try:
        node, time = int(node_s), float(time_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{spec!r}: {exc}")
    return (node, time)


def _parse_partition(spec: str):
    """``A-B@START:END`` -> a ``FaultConfig.partitions`` entry (a pairwise
    network partition window in nominal seconds, end-exclusive)."""
    pair, sep, window = spec.partition("@")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected A-B@START:END, got {spec!r}"
        )
    try:
        node_a, node_b = (int(part) for part in pair.split("-", 1))
        start, end = (float(part) for part in window.split(":", 1))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{spec!r}: {exc}")
    return (node_a, node_b, start, end)


#: the spec parser of each repeatable fault flag, by the tuple field it fills.
_SPEC_PARSERS = {
    "tier_outages": _parse_outage,
    "node_crashes": _parse_node_crash,
    "node_rejoins": _parse_node_rejoin,
    "partitions": _parse_partition,
}


def _flagged(cls):
    """``(field, option, metavar)`` for each field of ``cls`` whose knob
    declares a ``flag``."""
    for spec in dataclasses.fields(cls):
        option, _, metavar = spec.metadata.get("flag", "").partition(" ")
        if option:
            yield spec, option, metavar or None


def add_knob_flags(parser: argparse.ArgumentParser, cls, defaults: bool = True) -> None:
    """A flag for each knob of ``cls`` that declares one, worded by its
    ``help``.  A tuple field's flag repeats, each use one entry in its spec
    syntax; any other takes the type of the field's default and, with
    ``defaults``, the default itself (else ``None``, for "not given")."""
    for spec, option, metavar in _flagged(cls):
        if isinstance(spec.default, tuple):
            parser.add_argument(
                option, action="append", type=_SPEC_PARSERS[spec.name], metavar=metavar,
                help=f"{spec.metadata['help']} Repeatable.",
            )
        else:
            parser.add_argument(
                option, metavar=metavar, help=spec.metadata["help"],
                type=None if spec.default is None else type(spec.default),
                default=spec.default if defaults else None,
            )


def from_flags(cls, args):
    """``cls`` from the flags :func:`add_knob_flags` declared; a flag left
    at ``None`` keeps its field's default."""
    given = {}
    for spec, option, _ in _flagged(cls):
        value = getattr(args, option[2:].replace("-", "_"))
        if value is not None:
            given[spec.name] = tuple(value) if isinstance(value, list) else value
    return cls(**given)


def live_run_flags() -> argparse.ArgumentParser:
    """The flags of a live run, declared once: an argparse parent parser
    for ``repro trace`` and ``repro analyze`` (``parents=[...]``)."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--out-dir", default="traces", help="output directory")
    parser.add_argument("--snapshots", type=int, default=None, help="snapshots per rank")
    parser.add_argument("--processes", type=int, default=None, help="ranks (one GPU each)")
    parser.add_argument(
        "--order",
        choices=[o.value for o in RestoreOrder],
        default=RestoreOrder.REVERSE.value,
        help="restore order (default: reverse)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--predict",
        choices=PREDICT_MODES,
        default="hints",
        help="restore foreknowledge: explicit hints (default), online "
        "access-pattern prediction (no hints), or demand-only",
    )
    parser.add_argument(
        "--sched",
        action="store_true",
        help="enable QoS transfer scheduling and dump per-link "
        "queue-depth/preemption timelines",
    )
    parser.add_argument(
        "--reduce",
        action="store_true",
        help="enable the data-reduction pipeline and dump per-checkpoint "
        "logical/physical bytes, dedup hit rate and delta-chain depths",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="enable pipelined chunk streaming through the flush/prefetch "
        "cascade; chunk-level spans nest under each stage's track in the "
        "Perfetto export",
    )
    parser.add_argument(
        "--similarity",
        type=float,
        default=0.9,
        help="snapshot-to-snapshot payload similarity used with --reduce "
        "(default: 0.9)",
    )
    parser.add_argument(
        "--cluster",
        type=int,
        default=None,
        metavar="NODES",
        help="run the grid as an N-node checkpoint fabric (peer SSD reads, "
        "ring replication, anti-entropy repair); --processes must divide N",
    )
    add_knob_flags(parser, FaultConfig)
    parser.add_argument(
        "--resilient",
        action="store_true",
        help="enable the self-healing stack (retries, circuit breakers, "
        "reroute+backfill, CRC reverify, chunk-recipe sidecar)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="DEBUG logging of the repro runtime"
    )
    return parser


def faults_from_args(args) -> Optional[FaultConfig]:
    """The fault plan :func:`live_run_flags` asked for, or ``None`` when it
    injects nothing; :class:`ConfigError` for node chaos without
    ``--cluster`` or a plan ``FaultConfig`` rejects."""
    if (args.node_crash or args.node_rejoin or args.partition) and args.cluster is None:
        raise ConfigError("--node-crash/--node-rejoin/--partition need --cluster")
    plan = from_flags(FaultConfig, args)
    return plan if plan.injects else None


#: the live-run flags :func:`run_trace` takes under their own names.
_AS_IS = ("out_dir", "snapshots", "processes", "seed", "sched", "reduce", "stream",
          "similarity", "resilient", "predict")


def live_run(args) -> dict:
    """:func:`run_trace`'s keyword arguments from :func:`live_run_flags`."""
    return dict(
        {name: getattr(args, name) for name in _AS_IS},
        order=RestoreOrder(args.order), faults=faults_from_args(args), cluster_nodes=args.cluster,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="run a workload with the trace bus on and export the telemetry",
        parents=[live_run_flags()],
    )
    parser.add_argument("workload", choices=sorted(_DEFAULTS))
    args = parser.parse_args(argv)
    if args.verbose:
        enable_console_logging(logging.DEBUG)
    try:
        out = run_trace(args.workload, **live_run(args))
    except ConfigError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    print(out["rendered"])
    for kind in ("predict", "sched", "reduce"):
        if kind in out:
            print(f"\n{out[kind + '_rendered']}")
    print()
    print(f"wrote {out['events']} events:")
    for key in ("trace", "jsonl", "summary", "predict", "sched", "reduce"):
        if key in out:
            print(f"  {out[key]}")
    print("open the .trace.json at https://ui.perfetto.dev")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
