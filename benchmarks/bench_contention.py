#!/usr/bin/env python
"""Link-contention benchmark: demand-restore latency with and without QoS.

Two engines share one PCIe link pair and one node SSD, with ``flush_to_pfs``
enabled so the cascade's SSD read-back legs occupy the same SSD read link
that demand restores need.  Each engine checkpoints a history larger than
its caches (so old versions live only on SSD/PFS), hints a reverse-order
restore schedule, and then *deviates* from it every few restores by
demanding the farthest unconsumed version — a checkpoint the prefetcher has
not staged, served by a demand read that must fight the flush read-backs
and speculative prefetches for the link.

The figure of merit is the blocked-time distribution of those deviating
demand restores (p50/p99, nominal seconds), measured twice over the same
workload: once with the plain FIFO links (``SchedConfig.enabled=False``, the
pre-scheduler behaviour) and once with the QoS scheduler arbitrating every
shared link.  Priority scheduling plus speculative preemption should cut
the demand tail; the JSON result records both modes and the improvement.

Usage::

    PYTHONPATH=src python benchmarks/bench_contention.py \
        --json out.json [--quick] [--label after] \
        [--baseline BENCH_pr3.json --max-regression 20]

With ``--baseline`` the run fails (exit 1) when the scheduled-mode demand
p99 is more than ``--max-regression`` percent *worse* than the matching
entry (same ``--quick`` mode) of the baseline file — the CI smoke gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import deque

from repro.analysis.report import analyze_events
from repro.config import (
    AnalysisConfig,
    CacheConfig,
    RuntimeConfig,
    ScaleModel,
    SchedConfig,
    StreamConfig,
)
from repro.core.engine import ScoreEngine
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import GiB, KiB, MiB

#: One nominal second lasts 50 ms.  The figure of merit is a *nominal* tail
#: latency, and real condition-variable wake-up jitter (~0.1-1 ms wall)
#: pollutes it at wall/time_scale nominal seconds — at 0.05 that noise
#: floor sits well below the demand-read latencies being compared, while a
#: full two-mode comparison still finishes in seconds.
BENCH_SCALE = ScaleModel(data_scale=512 * KiB, time_scale=0.05, alignment=512 * KiB)

SNAPSHOT_SIZE = 128 * MiB
COMPUTE_INTERVAL = 0.05  # nominal seconds between checkpoints
#: nominal seconds of compute between restores.  Two engines pulling
#: 128 MiB every 0.05 s offer ~5.1 GiB/s to the 5.5 GiB/s SSD read link:
#: the prefetcher stays just-in-time, the link runs near saturation, and a
#: deviating demand read has to punch through in-flight prefetch traffic —
#: the contention the QoS classes exist for.  (Un-paced restores would
#: instead saturate the link with *demand-class* promotions, and no
#: scheduler can prioritize demand over demand.)
RESTORE_INTERVAL = 0.05
DEVIATE_EVERY = 4  # every 4th restore demands the farthest version


def build_config(sched_enabled: bool, stream: bool = False) -> RuntimeConfig:
    config = RuntimeConfig(
        scale=BENCH_SCALE,
        # 4 GPU slots / 8 host slots per engine: most of the history is
        # evicted to SSD (and, via the cascade, to the PFS) before restores
        # begin, so deviating restores are genuine cold demand reads.
        cache=CacheConfig(gpu_cache_size=512 * MiB, host_cache_size=1 * GiB),
        processes_per_node=2,  # one shared PCIe pair, one shared SSD
        charge_allocation_cost=False,
        # 16 MiB quanta: a demand read arriving mid-prefetch waits at most
        # ~3 ms on the SSD link before the arbiter hands it the slot.
        sched=SchedConfig(enabled=sched_enabled, quantum_bytes=16 * MiB),
    )
    if stream:
        # 128 MiB snapshots stream as 8-chunk pipelines at the default
        # chunk size; chunks flow through the same arbiters (a demand
        # read's chunks share its one request and its place in line), so
        # this mode exercises chunk-boundary preemption under contention.
        config = config.with_(stream=StreamConfig(enabled=True))
    return config


def make_buffer(context, seed: int):
    buf = context.device.alloc_buffer(SNAPSHOT_SIZE)
    buf.fill_random(make_rng(seed, "bench-contention"))
    return buf


def worker(engine, context, snapshots: int, demand_ids: set, errors: list) -> None:
    try:
        for i in range(snapshots):
            engine.checkpoint(i, make_buffer(context, seed=i))
            engine.clock.sleep(COMPUTE_INTERVAL)
        # Quiesce the cascade before the restore phase (the reason
        # Prefetch_start exists, Section 4.1.1): restores must not depend on
        # flush progress, or a demand promotion that forces an eviction would
        # *wait on* the very cascade traffic the scheduler deprioritizes.
        # The measured contention is demand reads vs the prefetch stream on
        # the shared SSD read link and PCIe H2D link.
        engine.wait_for_flushes(timeout=600.0)
        hints = list(reversed(range(snapshots)))
        for ckpt_id in hints:
            engine.prefetch_enqueue(ckpt_id)
        engine.prefetch_start()
        out = make_buffer(context, seed=10_000 + engine.process_id)
        remaining = deque(hints)
        # Stagger the ranks half an interval apart so their deviating
        # demand reads don't all land on the link in the same instant.
        engine.clock.sleep(engine.process_id * RESTORE_INTERVAL / 2)
        step = 0
        while remaining:
            if step % DEVIATE_EVERY == DEVIATE_EVERY - 1 and len(remaining) > 1:
                ckpt_id = remaining.pop()  # farthest hint: unprefetched
                demand_ids.add(ckpt_id)
            else:
                ckpt_id = remaining.popleft()  # hint-order restore
            engine.restore(ckpt_id, out)
            engine.clock.sleep(RESTORE_INTERVAL)
            step += 1
    except Exception as exc:  # noqa: BLE001 - surfaced by the driver
        errors.append(exc)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered))))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(values) -> dict:
    return {
        "count": len(values),
        "mean_s": round(sum(values) / len(values), 6),
        "p50_s": round(percentile(values, 50), 6),
        "p99_s": round(percentile(values, 99), 6),
        "max_s": round(max(values), 6),
    }


def run_mode(
    sched_enabled: bool, snapshots: int, analysis: bool = False, stream: bool = False
) -> dict:
    config = build_config(sched_enabled, stream=stream)
    if analysis:
        # Separate attribution pass: tracing + causal ids add real-time
        # bookkeeping that would pollute the measured p99s, so the timed
        # modes above run with both off and this pass's latencies are
        # never compared against the baseline gate.
        config = config.with_(telemetry=True, analysis=AnalysisConfig(enabled=True))
    with Cluster(config) as cluster:
        contexts = cluster.process_contexts()
        engines = [ScoreEngine(ctx, flush_to_pfs=True) for ctx in contexts]
        demand_ids = [set() for _ in engines]
        errors: list = []
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=worker, args=(eng, ctx, snapshots, ids, errors)
            )
            for eng, ctx, ids in zip(engines, contexts, demand_ids)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise errors[0]
            for engine in engines:
                engine.wait_for_flushes(timeout=600.0)
            demand, hinted = [], []
            for engine, ids in zip(engines, demand_ids):
                for event in engine.recorder.restores():
                    (demand if event.ckpt_id in ids else hinted).append(event.blocked)
            sched_stats = {}
            if sched_enabled:
                snaps = cluster.sched.snapshot()
                sched_stats = {
                    "grants": sum(s["grants"] for s in snaps),
                    "preemptions": sum(s["preemptions"] for s in snaps),
                }
            attribution = {}
            if analysis:
                report = analyze_events(cluster.telemetry.bus.snapshot())
                attribution = {
                    "attribution": {
                        "accounting": report["accounting"],
                        "categories": report["categories"],
                        "tiers": report["tiers"],
                    }
                }
            return {
                "sched": sched_enabled,
                "wall_s": round(time.perf_counter() - started, 3),
                "demand_restores": summarize(demand),
                "hinted_restores": summarize(hinted),
                **sched_stats,
                **attribution,
            }
        finally:
            for engine in engines:
                engine.close()


def run(quick: bool, repeats: int, label: str, stream: bool = False) -> dict:
    snapshots = 32 if quick else 96
    modes = {}
    for key, enabled in (("fifo", False), ("sched", True)):
        runs = []
        for i in range(repeats):
            result = run_mode(enabled, snapshots, stream=stream)
            runs.append(result)
            print(
                f"  {key} run {i + 1}/{repeats}: demand p99 "
                f"{result['demand_restores']['p99_s']:.4f}s nominal "
                f"({result['wall_s']:.2f}s wall)",
                file=sys.stderr,
            )
        # Best-of-N: thread-scheduling noise only ever inflates latency.
        modes[key] = min(runs, key=lambda r: r["demand_restores"]["p99_s"])
    print("  attribution pass (sched + causal tracing)", file=sys.stderr)
    attribution = run_mode(True, snapshots, analysis=True, stream=stream).get(
        "attribution", {}
    )
    fifo_p99 = modes["fifo"]["demand_restores"]["p99_s"]
    sched_p99 = modes["sched"]["demand_restores"]["p99_s"]
    return {
        "label": label,
        "quick": quick,
        "stream": stream,
        "engines": 2,
        "snapshots": snapshots,
        "deviate_every": DEVIATE_EVERY,
        "repeats": repeats,
        "fifo": modes["fifo"],
        "sched": modes["sched"],
        "attribution": attribution,
        "demand_p99_improvement_pct": round(
            100.0 * (fifo_p99 - sched_p99) / fifo_p99, 1
        )
        if fifo_p99 > 0
        else 0.0,
    }


def baseline_entry(baseline: dict, quick: bool, stream: bool = False):
    """The baseline measurement matching this run's ``--quick``/``--stream``."""
    candidates = []
    if "sched" in baseline and isinstance(baseline.get("sched"), dict):
        candidates.append(baseline)
    for value in baseline.values():
        if isinstance(value, dict) and isinstance(value.get("sched"), dict):
            candidates.append(value)
    matching = [
        c
        for c in candidates
        if c.get("quick", False) == quick and c.get("stream", False) == stream
    ]
    return matching[0] if matching else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced workload (CI smoke)")
    parser.add_argument(
        "--stream",
        action="store_true",
        help="enable pipelined chunk streaming through the flush cascade",
    )
    parser.add_argument("--repeats", type=int, default=2, help="runs per mode (best-of)")
    parser.add_argument("--label", default="after", help="label stored in the result JSON")
    parser.add_argument("--json", default=None, help="write the result JSON here")
    parser.add_argument("--baseline", default=None, help="baseline JSON to gate against")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=20.0,
        help="fail when the scheduled demand p99 exceeds baseline by this percent",
    )
    args = parser.parse_args(argv)

    result = run(args.quick, args.repeats, args.label, stream=args.stream)
    print(json.dumps(result, indent=2))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")

    if args.baseline:
        with open(args.baseline) as fh:
            entry = baseline_entry(json.load(fh), args.quick, args.stream)
        if entry is None:
            print(
                f"no baseline entry with quick={args.quick} stream={args.stream} "
                f"in {args.baseline}; skipping regression gate",
                file=sys.stderr,
            )
            return 0
        baseline_p99 = entry["sched"]["demand_restores"]["p99_s"]
        ceiling = baseline_p99 * (1.0 + args.max_regression / 100.0)
        current = result["sched"]["demand_restores"]["p99_s"]
        verdict = "OK" if current <= ceiling else "REGRESSION"
        print(
            f"{verdict}: scheduled demand p99 {current:.4f}s vs baseline "
            f"{baseline_p99:.4f}s (ceiling {ceiling:.4f}s)",
            file=sys.stderr,
        )
        if verdict != "OK":
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
