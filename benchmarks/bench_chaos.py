#!/usr/bin/env python
"""Chaos harness: injected faults, outages and crashes vs. durable recovery.

Each mode runs the same two-phase scenario against one engine:

* **Phase 1 (life)** — checkpoint ``snapshots`` versions under a seeded
  :class:`FaultConfig` (transient link faults, an SSD hard-outage window,
  optionally a crash point between flush stages) with the self-healing
  stack (:class:`ResilienceConfig`) enabled, then kill the engine.
* **Phase 2 (afterlife)** — scan the durable tiers for what actually
  survived, re-incarnate a fresh engine on the same rank,
  ``recover_history()`` (one scan of the durable stores), restore
  every surviving checkpoint and CRC-verify it against the checksum the
  application buffer had at write time.

The figure of merit is the **durable-recovery rate**: of the checkpoints
that reached a durable tier, the percentage the replacement process
restored with verified bytes.  The resilience design point is 100% at the
paper-ish chaos levels (≤5% transfer-fault rate plus one SSD outage);
``--require-recovery`` turns that into a CI gate.  The report also carries
the self-healing effort that bought it (retries, reroutes, backfills,
breaker opens) and the fault-free baseline for overhead comparison.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py \
        --json BENCH_pr5.json [--quick] [--require-recovery]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.config import (
    CacheConfig,
    FaultConfig,
    ResilienceConfig,
    RuntimeConfig,
    ScaleModel,
)
from repro.core.engine import ScoreEngine
from repro.errors import InjectedCrash, ReproError
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import GiB, KiB, MiB

#: One nominal second lasts 10 ms; correctness metrics (recovery counts,
#: CRC verdicts) are immune to wall-clock jitter, so the clock runs hot.
BENCH_SCALE = ScaleModel(data_scale=512 * KiB, time_scale=0.01, alignment=512 * KiB)

CKPT = 128 * MiB
SEED = 23

#: One SSD hard outage: the tier goes dark mid-run and heals before the end,
#: exercising retry exhaustion, breaker trip, PFS reroute and backfill.
#: (The serialized cascade moves ~0.4 nominal seconds per snapshot, so the
#: window swallows a handful of flushes in both quick and full runs.)
OUTAGE = (("ssd", 1.0, 2.5, 0.0),)

MODES = (
    # (key, transfer_fault_rate, outages, crash_point)
    ("baseline", 0.0, (), None),
    ("faults_2pct", 0.02, (), None),
    ("faults_5pct_ssd_outage", 0.05, OUTAGE, None),
    ("crash_after_h2f", 0.02, (), "after-h2f"),
)


def build_config(rate: float, outages: tuple, crash_point, crash_ckpt) -> RuntimeConfig:
    return RuntimeConfig(
        scale=BENCH_SCALE,
        cache=CacheConfig(gpu_cache_size=512 * MiB, host_cache_size=2 * GiB),
        charge_allocation_cost=False,
        processes_per_node=1,
        faults=FaultConfig(
            seed=SEED,
            transfer_fault_rate=rate,
            tier_outages=outages,
            crash_point=crash_point,
            crash_ckpt=crash_ckpt,
        ),
        resilience=ResilienceConfig(enabled=True),
    )


def run_mode(key: str, rate: float, outages: tuple, crash_point, snapshots: int) -> dict:
    # A crash mid-run kills the flush cascade; aim it at the middle version
    # so both already-durable and never-started checkpoints exist.
    crash_ckpt = snapshots // 2 if crash_point is not None else None
    cfg = build_config(rate, outages, crash_point, crash_ckpt)
    started = time.perf_counter()
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]

        # -- phase 1: checkpoint under chaos, then die ---------------------
        engine = ScoreEngine(ctx, flush_to_pfs=True)
        pid = engine.process_id
        sums = {}
        written = 0
        for v in range(snapshots):
            buf = ctx.device.alloc_buffer(CKPT)
            buf.fill_random(make_rng(SEED + v, "chaos"))
            sums[v] = buf.checksum()
            try:
                engine.checkpoint(v, buf)
            except InjectedCrash:
                break  # the process died between flush stages
            written += 1
            if crash_point is None:
                # Serialize the cascade so every version gets its shot at
                # durability before the next one competes for the links.
                engine.wait_for_flushes(timeout=600.0)
        engine.close()  # "failure": threads stop, caches are gone
        life_stats = engine.stats().get("resilience", {})
        faults_seen = cluster.faults.snapshot()

        # -- what actually survived decides what must come back ------------
        stores = [cluster.nodes[0].ssd, cluster.pfs]
        durable = sorted(
            v for v in range(snapshots)
            if any(s.contains((pid, v)) for s in stores)
        )

        # -- phase 2: re-incarnate, recover, verify ------------------------
        engine2 = ScoreEngine(ctx, flush_to_pfs=True)
        try:
            recovered = engine2.recover_history()
            verified = 0
            failures = []
            out = ctx.device.alloc_buffer(CKPT)
            for v in durable:
                try:
                    engine2.restore(v, out)
                except ReproError as exc:
                    failures.append({"ckpt": v, "error": str(exc)})
                    continue
                if out.checksum() == sums[v]:
                    verified += 1
                else:
                    failures.append({"ckpt": v, "error": "checksum mismatch"})
        finally:
            engine2.close()

    recovery_pct = 100.0 * verified / len(durable) if durable else 100.0
    return {
        "mode": key,
        "transfer_fault_rate": rate,
        "ssd_outage": bool(outages),
        "crash_point": crash_point,
        "wall_s": round(time.perf_counter() - started, 3),
        "snapshots": snapshots,
        "written": written,
        "durable": len(durable),
        "recovered": recovered,
        "verified": verified,
        "recovery_pct": round(recovery_pct, 1),
        "failures": failures,
        "injected": faults_seen,
        "healing": {
            "flush_retries": life_stats.get("flush_retries", 0),
            "rerouted": life_stats.get("rerouted", 0),
            "reflushed": life_stats.get("reflushed", 0),
            "backfilled": life_stats.get("backfilled", 0),
            "breakers": life_stats.get("breakers", {}),
        },
    }


def run(quick: bool, label: str) -> dict:
    snapshots = 8 if quick else 32
    modes = {}
    for key, rate, outages, crash_point in MODES:
        modes[key] = run_mode(key, rate, outages, crash_point, snapshots)
        m = modes[key]
        print(
            f"  {key}: durable {m['durable']}/{m['written']} written, "
            f"verified {m['verified']}/{m['durable']} "
            f"({m['recovery_pct']:.0f}%), retries {m['healing']['flush_retries']}, "
            f"rerouted {m['healing']['rerouted']} ({m['wall_s']:.2f}s wall)",
            file=sys.stderr,
        )
    return {
        "label": label,
        "quick": quick,
        "snapshots": snapshots,
        "seed": SEED,
        "modes": modes,
        "recovery_pct_min": min(m["recovery_pct"] for m in modes.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced workload (CI smoke)")
    parser.add_argument("--label", default="after", help="label stored in the result JSON")
    parser.add_argument("--json", default=None, help="write the result JSON here")
    parser.add_argument(
        "--require-recovery",
        action="store_true",
        help="fail unless every mode recovers 100%% of its durable checkpoints",
    )
    args = parser.parse_args(argv)

    result = run(args.quick, args.label)
    print(json.dumps(result, indent=2))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")

    if args.require_recovery:
        worst = result["recovery_pct_min"]
        verdict = "OK" if worst >= 100.0 else "DATA LOSS"
        print(
            f"{verdict}: worst-mode durable recovery {worst:.1f}% (gate 100%)",
            file=sys.stderr,
        )
        if verdict != "OK":
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
