"""Memoised eviction costs stay exact under thread interleaving.

Four threads reserve, transition and consume checkpoints on one engine's
caches while the interpreter hands over every 10 µs, so a cost drop can
race every scan.  Every join is bounded, and the engine must validate at
the end: ``validate_engine`` recomputes every memoised cost.
"""

import sys
import threading

from repro.core.lifecycle import CkptState
from repro.core.validator import validate_engine
from repro.tiers.base import TierLevel
from repro.util.units import MiB

SLOT = 128 * MiB
ROUNDS = 150


def _life(engine, worker: int, errors: list) -> None:
    """``ROUNDS`` checkpoints through write, flush, read-pin, speculative
    staging and consumption; workers 0 and 2 on the GPU cache, 1 and 3 on
    the host cache."""
    cache = (engine.gpu_cache, engine.host_cache)[worker % 2]
    monitor = engine.monitor
    try:
        for k in range(ROUNDS):
            ckpt_id = 1000 * (worker + 1) + k
            with monitor:
                record = engine.catalog.create(ckpt_id, SLOT, SLOT, 0)
                record.durable_level = TierLevel.SSD  # eviction keeps a copy below
                if k % 3:
                    engine.queue.enqueue(ckpt_id)  # hinted, never started
            cache.reserve(record, CkptState.WRITE_IN_PROGRESS)
            inst = record.peek(cache.level)
            for change in (
                lambda: inst.transition(CkptState.WRITE_COMPLETE),
                lambda: setattr(inst, "flush_pending", True),
                lambda: setattr(inst, "flush_pending", False),
                lambda: inst.transition(CkptState.FLUSHED),
                lambda: setattr(inst, "read_pinned", 1),
                lambda: setattr(inst, "read_pinned", 0),
                lambda: inst.transition(CkptState.READ_COMPLETE),
                lambda: setattr(inst, "speculative", k % 2 == 0),
                lambda: engine.queue.consume(ckpt_id),
                lambda: setattr(record, "consumed", True),
                lambda: inst.transition(CkptState.CONSUMED),
            ):
                with monitor:
                    change()
                    monitor.notify_all()
    except Exception as exc:  # boundary: the main thread reports it
        errors.append((worker, exc))


def test_four_threads_keep_every_memoised_cost_exact(engine):
    errors: list = []
    workers = [
        threading.Thread(target=_life, args=(engine, worker, errors), name=f"memo-{worker}")
        for worker in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert engine.gpu_cache.evictions and engine.host_cache.evictions
    validate_engine(engine)
