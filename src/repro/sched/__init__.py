"""QoS transfer scheduling for shared tier links.

The paper mandates demand-first priority over speculative prefetch (Section
4.3.2) but its async cascading flushes, prefetches and demand promotions all
multiplex the same PCIe/SSD/PFS links; without arbitration a burst of
cascade flushes (or a deep speculative-prefetch queue) starves the demand
restores the application is actually blocked on.  This package adds:

* :class:`~repro.sched.request.TransferClass` — the priority lattice
  (demand read > hinted prefetch > cascade flush > speculative prefetch);
* :class:`~repro.sched.request.TransferRequest` — one transfer's class,
  fair-queuing flow (engine), deadline and cancellation channel;
* :class:`~repro.sched.scheduler.LinkScheduler` — the per-link arbiter:
  strict priority, equal-share fair queuing across engines, EDF pacing of
  prefetch deadlines and demand-read preemption of in-flight speculative
  prefetches.  It admits every transfer: backpressure comes from the
  caches (a ``checkpoint`` blocks only until its bytes are in the GPU
  cache, as the paper's does);
* :class:`~repro.sched.scheduler.SchedContext` — the cluster-wide fleet of
  arbiters plus aggregate diagnostics.

Everything is gated by :class:`~repro.config.SchedConfig` (``enabled=False``
keeps the historical unarbitrated FIFO links).
"""

from repro.config import SchedConfig
from repro.sched.report import render_sched_timeline, sched_events
from repro.sched.request import (
    PREEMPTIBLE_CLASSES,
    TransferClass,
    TransferRequest,
)
from repro.sched.scheduler import LinkScheduler, SchedContext

__all__ = [
    "SchedConfig",
    "TransferClass",
    "TransferRequest",
    "PREEMPTIBLE_CLASSES",
    "LinkScheduler",
    "SchedContext",
    "render_sched_timeline",
    "sched_events",
]
