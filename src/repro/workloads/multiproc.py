"""Multi-process (thread-per-GPU) shot execution.

Each simulated process drives its own engine on its own GPU from a
dedicated thread, sharing PCIe links, SSD and PFS through the cluster
topology.  Two coupling modes (Section 5.4.6):

* **embarrassingly parallel** — no synchronization; processes drift apart
  and compete freely for shared resources;
* **tightly coupled** — a barrier at every iteration of both passes (one
  shot across multiple GPUs with per-iteration synchronization).
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence

from repro.errors import ConfigError
from repro.tiers.topology import Cluster, ProcessContext
from repro.workloads.shot import ShotResult, ShotSpec, run_shot

EngineFactory = Callable[[ProcessContext], object]


def run_multiprocess_shot(
    cluster: Cluster,
    engine_factory: EngineFactory,
    specs: Sequence[ShotSpec],
    tightly_coupled: bool = False,
    contexts: Optional[Sequence[ProcessContext]] = None,
) -> List[ShotResult]:
    """Run one shot per process concurrently; returns results in rank order.

    A failing process surfaces its exception in ``ShotResult.error`` (and
    the first error is re-raised after every thread finishes, so tests fail
    loudly while other threads still shut down cleanly).
    """
    contexts = list(contexts) if contexts is not None else cluster.process_contexts()
    if len(specs) != len(contexts):
        raise ConfigError(
            f"{len(specs)} specs for {len(contexts)} processes"
        )
    num = len(contexts)
    iterations = {len(spec.trace) for spec in specs}
    if tightly_coupled and len(iterations) != 1:
        raise ConfigError("tightly coupled runs need equal-length traces")

    barrier = cluster.clock.barrier(num) if tightly_coupled and num > 1 else None

    def hook(phase: str, iteration: int) -> None:
        if barrier is not None:
            barrier.wait()

    results: List[Optional[ShotResult]] = [None] * num

    def worker(rank: int) -> None:
        engine = engine_factory(contexts[rank])
        try:
            results[rank] = run_shot(
                engine, specs[rank], iteration_hook=hook if barrier is not None else None
            )
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            results[rank] = ShotResult(
                process_id=getattr(engine, "process_id", rank),
                recorder=engine.recorder,
                checkpoint_phase_seconds=0.0,
                flush_wait_seconds=0.0,
                restore_phase_seconds=0.0,
                error=exc,
            )
            if barrier is not None:
                barrier.abort()
        finally:
            engine.close()

    threads = [
        threading.Thread(target=cluster.clock.runner(worker), args=(rank,), name=f"shot-p{rank}")
        for rank in range(num)
    ]
    for t in threads:
        t.start()
    for t in threads:
        cluster.clock.join(t)
    final = [r for r in results if r is not None]
    assert len(final) == num
    for result in final:
        if result.error is not None:
            raise result.error
    return final
