"""The paper's contribution: the "Score" checkpoint caching runtime.

Submodules:

* :mod:`~repro.core.sync` — the engine-wide monitor all state shares.
* :mod:`~repro.core.lifecycle` — the Fig.-1 finite-state machine.
* :mod:`~repro.core.catalog` — checkpoint records and per-tier instances.
* :mod:`~repro.core.alloctable` — fragment table of a contiguous cache arena.
* :mod:`~repro.core.restore_queue` — restore-order hints, prefetch distance.
* :mod:`~repro.core.predict` — ``predict_evictable`` time estimation.
* :mod:`~repro.core.scoring` — Algorithm 1 (gap-aware sliding window).
* :mod:`~repro.core.cache` — CacheBuffer: arena + table + eviction + waits.
* :mod:`~repro.core.flusher` — asynchronous D2H / H2F flush cascade.
* :mod:`~repro.core.prefetcher` — asynchronous multi-tier prefetch, one worker per hop.
* :mod:`~repro.core.engine` — one process's engine.
* :mod:`~repro.core.client` — the VELOC-like public API.
"""

from repro.core.lifecycle import CkptState
from repro.core.engine import ScoreEngine
from repro.core.client import Client

__all__ = ["CkptState", "ScoreEngine", "Client"]
