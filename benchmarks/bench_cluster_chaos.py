#!/usr/bin/env python
"""Cluster-chaos benchmark: durability and restore latency through a crash.

A 4-node cluster (``replica_factor=2``, peer reads, failover, repair)
serves concurrent clients through the :class:`CheckpointService`. Two
measured scenarios:

* ``baseline`` — submit, settle, restore cross-node. No chaos; this is
  the no-crash demand-restore latency reference.
* ``chaos`` — same workload, but after the flush cascades settle one
  node is fail-stop crashed (its engines die, its SSD contents are
  lost, the replica directory withdraws every copy it held). The
  anti-entropy repairer then re-replicates from the surviving holders,
  and every client restores its checkpoints through the service —
  sessions pinned to the dead node fail over to survivors.

Reported per scenario: demand-restore p50/p99, recovered/durable
counts, repair copies, and the post-repair minimum holder count.

Three self-contained gates:

* 100% durable recovery: every checkpoint that reached a durable tier
  before the crash restores bit-identically afterwards.
* Factor restored: after repair, no directory entry has fewer than
  ``replica_factor`` live holders.
* ``--max-p99-ratio`` (default 2.0): the post-crash demand-restore p99
  must stay within this multiple of the no-crash baseline p99.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster_chaos.py \
        --json BENCH_pr10.json [--quick] [--label after] \
        [--baseline BENCH_pr10.json --max-regression 25]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.cluster.topology import ClusterTopology
from repro.config import CacheConfig, ClusterConfig, RuntimeConfig, ScaleModel
from repro.util.rng import make_rng
from repro.util.units import GiB, KiB, MiB

#: One nominal second lasts 100 ms (same discipline as bench_cluster.py).
BENCH_SCALE = ScaleModel(data_scale=512 * KiB, time_scale=0.1, alignment=512 * KiB)

SNAPSHOT_SIZE = 128 * MiB
NODES = 4
ENGINES_PER_NODE = 1
REPLICA_FACTOR = 2
CRASH_NODE = 1


def build_config() -> RuntimeConfig:
    return RuntimeConfig(
        scale=BENCH_SCALE,
        cache=CacheConfig(gpu_cache_size=512 * MiB, host_cache_size=2 * GiB),
        charge_allocation_cost=False,
        num_nodes=NODES,
        processes_per_node=ENGINES_PER_NODE,
        cluster=ClusterConfig(enabled=True, replica_factor=REPLICA_FACTOR),
    )


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def run_scenario(crash: bool, checkpoints: int) -> dict:
    """Submit, settle, (optionally crash + repair), restore everything."""
    config = build_config()
    started = time.perf_counter()
    with ClusterTopology(config, engine_kwargs={"flush_to_pfs": True}) as topo:
        service = topo.service
        engines = topo.engines
        clients = NODES * ENGINES_PER_NODE
        sessions = [service.connect(f"client-{i}") for i in range(clients)]

        checksums = {}
        for j in range(checkpoints):
            for i, session in enumerate(sessions):
                ckpt_id = i * checkpoints + j
                buf = session.engine.device.alloc_buffer(SNAPSHOT_SIZE)
                buf.fill_random(make_rng(29 + ckpt_id, "chaos-bench"))
                checksums[ckpt_id] = buf.checksum()
                session.submit(ckpt_id, buf)
        for engine in engines:
            engine.wait_for_flushes(timeout=600.0)

        fabric = topo.fabric
        durable = {
            ckpt_id
            for ckpt_id in checksums
            if service._home_of(ckpt_id) is not None
            and (
                fabric.directory.holders((service._home_of(ckpt_id), ckpt_id))
                or topo.cluster.pfs.contains((service._home_of(ckpt_id), ckpt_id))
            )
        }

        repair_copies = 0
        if crash:
            fabric.membership.crash(CRASH_NODE, "fail-stop")
            repair_copies = fabric.repairer.run()

        # Every client restores its checkpoints cross-node: the target
        # sits two ring positions away, skipping the successor replica,
        # so every restore is a demand promotion over the fabric. When
        # the crash killed the session's home or its target, the restore
        # goes through the service's failover path instead (re-pin to a
        # survivor, then promote).
        latencies = []
        recovered = 0
        mismatched = []
        for i, session in enumerate(sessions):
            target = engines[(i + 2 * ENGINES_PER_NODE) % len(engines)]
            for j in range(checkpoints):
                ckpt_id = i * checkpoints + j
                if ckpt_id not in durable:
                    continue
                alloc_on = session.engine if target.crashed.is_set() else target
                if alloc_on.crashed.is_set():
                    alloc_on = next(e for e in engines if not e.crashed.is_set())
                out = alloc_on.device.alloc_buffer(SNAPSHOT_SIZE)
                if target.crashed.is_set() or session.engine.crashed.is_set():
                    latencies.append(session.restore(ckpt_id, out))
                else:
                    latencies.append(session.restore(ckpt_id, out, engine=target))
                if out.checksum() == checksums[ckpt_id]:
                    recovered += 1
                else:
                    mismatched.append(ckpt_id)

        min_holders = min(
            (len(holders) for _, holders in fabric.directory.snapshot()),
            default=0,
        )
        snapshot = topo.telemetry.registry.snapshot()
        stats = service.stats()

    return {
        "crash": crash,
        "wall_s": round(time.perf_counter() - started, 3),
        "durable": len(durable),
        "recovered": recovered,
        "mismatched": mismatched,
        "restores": len(latencies),
        "p50_s": round(percentile(latencies, 0.50), 6),
        "p99_s": round(percentile(latencies, 0.99), 6),
        "mean_s": round(sum(latencies) / len(latencies), 6),
        "repair_copies": repair_copies,
        "min_holders_after": min_holders,
        "failovers": stats["failovers"],
        "degraded_reads": int(snapshot.get("cluster.membership.degraded_reads", 0)),
        "repair_bytes": int(snapshot.get("cluster.repair.bytes", 0)),
    }


def run(quick: bool, repeats: int, label: str) -> dict:
    checkpoints = 2 if quick else 3
    modes = {}
    for key, crash in (("baseline", False), ("chaos", True)):
        runs = []
        for i in range(repeats):
            result = run_scenario(crash, checkpoints)
            runs.append(result)
            print(
                f"  {key} run {i + 1}/{repeats}: {result['recovered']}/"
                f"{result['durable']} recovered, restore p99 "
                f"{result['p99_s']:.4f}s nominal, {result['repair_copies']} "
                f"repair copies ({result['wall_s']:.2f}s wall)",
                file=sys.stderr,
            )
        # Best-of-N on p99: wall-clock noise only ever inflates latency.
        modes[key] = min(runs, key=lambda r: r["p99_s"])
    baseline_p99 = modes["baseline"]["p99_s"]
    chaos_p99 = modes["chaos"]["p99_s"]
    return {
        "label": label,
        "quick": quick,
        "nodes": NODES,
        "engines_per_node": ENGINES_PER_NODE,
        "replica_factor": REPLICA_FACTOR,
        "crash_node": CRASH_NODE,
        "snapshot_size_mib": SNAPSHOT_SIZE // MiB,
        "checkpoints_per_client": checkpoints,
        "repeats": repeats,
        "baseline": modes["baseline"],
        "chaos": modes["chaos"],
        "p99_ratio": round(chaos_p99 / baseline_p99, 3) if baseline_p99 else 0.0,
    }


def baseline_entry(baseline: dict, quick: bool):
    """The baseline measurement matching this run's ``--quick`` mode."""
    candidates = []
    if isinstance(baseline.get("chaos"), dict):
        candidates.append(baseline)
    for value in baseline.values():
        if isinstance(value, dict) and isinstance(value.get("chaos"), dict):
            candidates.append(value)
    matching = [c for c in candidates if c.get("quick", False) == quick]
    return matching[0] if matching else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced workload (CI smoke)")
    parser.add_argument("--repeats", type=int, default=2, help="runs per scenario (best-of)")
    parser.add_argument("--label", default="after", help="label stored in the result JSON")
    parser.add_argument("--json", default=None, help="write the result JSON here")
    parser.add_argument(
        "--max-p99-ratio",
        type=float,
        default=2.0,
        help="fail when the post-crash restore p99 exceeds this multiple "
        "of the no-crash baseline p99",
    )
    parser.add_argument("--baseline", default=None, help="baseline JSON to gate against")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=25.0,
        help="fail when the chaos restore p99 exceeds baseline by this percent",
    )
    args = parser.parse_args(argv)

    result = run(args.quick, args.repeats, args.label)
    print(json.dumps(result, indent=2))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")

    failed = False
    chaos = result["chaos"]
    if chaos["recovered"] < chaos["durable"] or chaos["mismatched"]:
        print(
            f"GATE FAILED: {chaos['recovered']}/{chaos['durable']} durable "
            f"checkpoints recovered after the crash "
            f"(mismatched: {chaos['mismatched']})",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"OK: {chaos['recovered']}/{chaos['durable']} durable checkpoints "
            f"recovered bit-identically after a 1-node fail-stop crash",
            file=sys.stderr,
        )
    if chaos["min_holders_after"] < REPLICA_FACTOR:
        print(
            f"GATE FAILED: repair left a checkpoint with "
            f"{chaos['min_holders_after']} holders (< factor {REPLICA_FACTOR})",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"OK: anti-entropy repair restored replica_factor={REPLICA_FACTOR} "
            f"({chaos['repair_copies']} copies)",
            file=sys.stderr,
        )
    ratio = result["p99_ratio"]
    if ratio > args.max_p99_ratio:
        print(
            f"GATE FAILED: post-crash restore p99 is {ratio:.2f}x the "
            f"no-crash baseline (> {args.max_p99_ratio:.1f}x)",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"OK: post-crash restore p99 {chaos['p99_s']:.4f}s is {ratio:.2f}x "
            f"the no-crash baseline {result['baseline']['p99_s']:.4f}s "
            f"(<= {args.max_p99_ratio:.1f}x)",
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
            base_p99 = entry["chaos"]["p99_s"]
            ceiling = base_p99 * (1.0 + args.max_regression / 100.0)
            current = result["chaos"]["p99_s"]
            verdict = "OK" if current <= ceiling else "REGRESSION"
            print(
                f"{verdict}: chaos restore p99 {current:.4f}s vs baseline "
                f"{base_p99:.4f}s (ceiling {ceiling:.4f}s)",
                file=sys.stderr,
            )
            if verdict != "OK":
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
