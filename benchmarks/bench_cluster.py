#!/usr/bin/env python
"""Cluster-fabric benchmark: peer-SSD restore vs PFS-only, PFS aggregation.

A 4-node × 2-engines-per-node cluster serves concurrent clients through
the :class:`CheckpointService`: every client submits its checkpoints,
the cascades settle, then all clients restore *cross-node* at once (the
target sits two nodes around the ring, so neither the target's SSD nor
its neighbor replica is local — every restore is a demand promotion over
the fabric). The figure of merit is the demand-restore p99 in nominal
seconds.

Three runs, ablating one fabric feature at a time:

* ``pfs_only`` — ``peer_reads=False``: every restore drops to the shared
  PFS; concurrent clients contend on its global links.
* ``peer`` — ``peer_reads=True``: restores pull from a holder's SSD over
  the interconnect, spreading load across per-node drives.
* ``agg`` — ``aggregation=True`` (peer reads off, same write workload as
  ``pfs_only``): co-located engines' concurrent flush streams coalesce
  into batched PFS commits, cutting the PFS op count.

Two self-contained gates:

* ``--min-peer-reduction`` (default 25): peer restore p99 must be at
  least this many percent below the PFS-only p99.
* ``--require-agg-reduction``: the aggregated run must issue strictly
  fewer PFS write ops than the unaggregated one.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py \
        --json BENCH_pr8.json [--quick] [--label after] \
        [--baseline BENCH_pr8.json --max-regression 25]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.cluster.topology import ClusterTopology
from repro.config import CacheConfig, ClusterConfig, RuntimeConfig, ScaleModel
from repro.util.units import GiB, KiB, MiB
from repro.workloads.service_load import run_service_load

#: Unscaled time.  The clock skips the time every thread spends parked, so
#: the scale only turns the simulator's own running time (Python between
#: chunks, thread hand-offs) into nominal time: at 1.0 restore transfers
#: (tens of nominal milliseconds each) dwarf it, where at 0.1 it weighed
#: ten times as much and hid the peer-vs-PFS difference.
BENCH_SCALE = ScaleModel(data_scale=512 * KiB, time_scale=1.0, alignment=512 * KiB)

SNAPSHOT_SIZE = 128 * MiB
NODES = 4
ENGINES_PER_NODE = 2

#: Nominal seconds a batch leader waits for co-located flush streams — an
#: order of magnitude above condition-variable wake-up jitter.
AGG_WINDOW_S = 0.1


def build_config(peer_reads: bool, aggregation: bool) -> RuntimeConfig:
    return RuntimeConfig(
        scale=BENCH_SCALE,
        cache=CacheConfig(gpu_cache_size=512 * MiB, host_cache_size=2 * GiB),
        charge_allocation_cost=False,
        num_nodes=NODES,
        processes_per_node=ENGINES_PER_NODE,
        cluster=ClusterConfig(
            enabled=True,
            peer_reads=peer_reads,
            aggregation=aggregation,
            aggregation_window_s=AGG_WINDOW_S,
        ),
    )


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def run_mode(peer_reads: bool, aggregation: bool, checkpoints: int) -> dict:
    config = build_config(peer_reads, aggregation)
    started = time.perf_counter()
    with ClusterTopology(config, engine_kwargs={"flush_to_pfs": True}) as topo:
        result = run_service_load(
            topo,
            clients=NODES * ENGINES_PER_NODE,
            checkpoints_per_client=checkpoints,
            snapshot_bytes=SNAPSHOT_SIZE,
            cross_node=True,
            node_shift=2,  # skip the ring-successor replica: no local hits
        )
        if not result["checksums_ok"]:
            raise RuntimeError("restored payload checksum mismatch")
        snapshot = topo.telemetry.registry.snapshot()
    latencies = result["restore_latencies"]
    return {
        "peer_reads": peer_reads,
        "aggregation": aggregation,
        "restores": len(latencies),
        "wall_s": round(time.perf_counter() - started, 3),
        "p50_s": round(percentile(latencies, 0.50), 6),
        "p99_s": round(percentile(latencies, 0.99), 6),
        "mean_s": round(sum(latencies) / len(latencies), 6),
        "pfs_write_ops": int(snapshot.get("tier.pfs.write_ops", 0)),
        "peer_ssd_reads": int(snapshot.get("cluster.peer.reads", 0)),
        "agg_batches": int(snapshot.get("cluster.agg.batches", 0)),
        "agg_coalesced_ops": int(snapshot.get("cluster.agg.coalesced_ops", 0)),
    }


def run(quick: bool, repeats: int, label: str) -> dict:
    checkpoints = 2 if quick else 3
    modes = {}
    for key, peer_reads, aggregation in (
        ("pfs_only", False, False),
        ("peer", True, False),
        ("agg", False, True),
    ):
        runs = []
        for i in range(repeats):
            result = run_mode(peer_reads, aggregation, checkpoints)
            runs.append(result)
            print(
                f"  {key} run {i + 1}/{repeats}: restore p99 "
                f"{result['p99_s']:.4f}s nominal, {result['pfs_write_ops']} PFS "
                f"write ops ({result['wall_s']:.2f}s wall)",
                file=sys.stderr,
            )
        # Best-of-N: wall-clock scheduling noise leaks into the wall-scaled
        # virtual clock and only ever inflates latency.
        modes[key] = min(runs, key=lambda r: r["p99_s"])
    pfs_p99 = modes["pfs_only"]["p99_s"]
    peer_p99 = modes["peer"]["p99_s"]
    ops_before = modes["pfs_only"]["pfs_write_ops"]
    ops_after = modes["agg"]["pfs_write_ops"]
    return {
        "label": label,
        "quick": quick,
        "nodes": NODES,
        "engines_per_node": ENGINES_PER_NODE,
        "snapshot_size_mib": SNAPSHOT_SIZE // MiB,
        "checkpoints_per_client": checkpoints,
        "repeats": repeats,
        "pfs_only": modes["pfs_only"],
        "peer": modes["peer"],
        "agg": modes["agg"],
        "peer_p99_reduction_pct": round(100.0 * (1.0 - peer_p99 / pfs_p99), 1),
        "pfs_write_ops_reduction_pct": round(
            100.0 * (1.0 - ops_after / ops_before), 1
        )
        if ops_before
        else 0.0,
    }


def baseline_entry(baseline: dict, quick: bool):
    """The baseline measurement matching this run's ``--quick`` mode."""
    candidates = []
    if isinstance(baseline.get("peer"), dict):
        candidates.append(baseline)
    for value in baseline.values():
        if isinstance(value, dict) and isinstance(value.get("peer"), dict):
            candidates.append(value)
    matching = [c for c in candidates if c.get("quick", False) == quick]
    return matching[0] if matching else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced workload (CI smoke)")
    parser.add_argument("--repeats", type=int, default=2, help="runs per mode (best-of)")
    parser.add_argument("--label", default="after", help="label stored in the result JSON")
    parser.add_argument("--json", default=None, help="write the result JSON here")
    parser.add_argument(
        "--min-peer-reduction",
        type=float,
        default=25.0,
        help="fail when peer-SSD restore cuts p99 by less than this percent",
    )
    parser.add_argument(
        "--require-agg-reduction",
        action="store_true",
        help="fail unless aggregation strictly reduces PFS write ops",
    )
    parser.add_argument("--baseline", default=None, help="baseline JSON to gate against")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=25.0,
        help="fail when peer restore p99 exceeds baseline by this percent",
    )
    args = parser.parse_args(argv)

    result = run(args.quick, args.repeats, args.label)
    print(json.dumps(result, indent=2))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")

    failed = False
    reduction = result["peer_p99_reduction_pct"]
    if reduction < args.min_peer_reduction:
        print(
            f"GATE FAILED: peer-SSD restore cut p99 by {reduction:.1f}% "
            f"(< {args.min_peer_reduction:.0f}%)",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"OK: peer-SSD restore cut demand-restore p99 by {reduction:.1f}% "
            f"({result['pfs_only']['p99_s']:.4f}s -> {result['peer']['p99_s']:.4f}s)",
            file=sys.stderr,
        )
    ops_before = result["pfs_only"]["pfs_write_ops"]
    ops_after = result["agg"]["pfs_write_ops"]
    if args.require_agg_reduction and ops_after >= ops_before:
        print(
            f"GATE FAILED: aggregation did not reduce PFS write ops "
            f"({ops_before} -> {ops_after})",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"OK: aggregation cut PFS write ops {ops_before} -> {ops_after} "
            f"({result['pfs_write_ops_reduction_pct']:.1f}%, "
            f"{result['agg']['agg_batches']} batches)",
            file=sys.stderr,
        )

    if args.baseline:
        with open(args.baseline) as fh:
            entry = baseline_entry(json.load(fh), args.quick)
        if entry is None:
            print(
                f"no baseline entry with quick={args.quick} in {args.baseline}; "
                "skipping regression gate",
                file=sys.stderr,
            )
        else:
            baseline_p99 = entry["peer"]["p99_s"]
            ceiling = baseline_p99 * (1.0 + args.max_regression / 100.0)
            current = result["peer"]["p99_s"]
            verdict = "OK" if current <= ceiling else "REGRESSION"
            print(
                f"{verdict}: peer restore p99 {current:.4f}s vs baseline "
                f"{baseline_p99:.4f}s (ceiling {ceiling:.4f}s)",
                file=sys.stderr,
            )
            if verdict != "OK":
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
