#!/usr/bin/env python
"""Checkpoint-restart resilience with ring replication.

The classic VELOC scenario the Score runtime inherits (Section 3.1): a
process checkpoints on a two-node replica ring (``replica_factor=2``: every
durable checkpoint is also copied to the successor node's SSD), "dies",
loses its entire node-local SSD, and a replacement process on the same rank
recovers the full history from the successor node and resumes.

Run:  python examples/failure_recovery.py [--snapshots 12]
"""

import argparse

from repro.config import ClusterConfig, bench_config
from repro.core.engine import ScoreEngine
from repro.harness.experiment import scaled_caches
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import MiB

SIZE = 128 * MiB


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snapshots", type=int, default=12)
    args = parser.parse_args()
    n = args.snapshots

    config = bench_config(
        num_nodes=2,
        processes_per_node=1,
        cache=scaled_caches(max(n, 16) * SIZE),
        cluster=ClusterConfig(enabled=True, replica_factor=2),
    )
    with Cluster(config) as cluster:
        ctx = cluster.process_contexts()[0]

        # --- first incarnation: checkpoint with replication, then "die" ---
        engine = ScoreEngine(ctx)
        rng = make_rng(77, "app-state")
        buffer = ctx.device.alloc_buffer(SIZE)
        checksums = {}
        print(f"incarnation 1: writing {n} checkpoints on a two-node replica ring")
        for version in range(n):
            ctx.clock.sleep(0.010)
            buffer.fill_random(rng)
            checksums[version] = buffer.checksum()
            engine.checkpoint(version, buffer)
        engine.wait_for_flushes()
        replicated = engine.flusher.replicated
        engine.close()
        print(f"  durable on node 0's SSD + {replicated} replicas on node 1")

        # --- the failure: node 0 loses its entire SSD ---
        home_ssd = cluster.nodes[0].ssd
        lost = 0
        for version in range(n):
            if home_ssd.contains((ctx.process_id, version)):
                home_ssd.delete((ctx.process_id, version))
                lost += 1
        print(f"FAILURE: node 0's SSD wiped ({lost} checkpoints lost locally)")

        # --- the replacement process recovers from the successor node ---
        replacement = ScoreEngine(ctx)
        try:
            recovered = replacement.recover_history()
            print(f"incarnation 2: recovered {recovered} checkpoints from node 1")
            for version in range(n):
                replacement.restore(version, buffer)
                assert buffer.checksum() == checksums[version], (
                    f"state diverged at version {version}"
                )
            print("all restored states checksum-verified — resilience holds")
        finally:
            replacement.close()


if __name__ == "__main__":
    main()
