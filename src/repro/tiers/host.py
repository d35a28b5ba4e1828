"""Pinned host cache-tier arena construction.

Pinned host memory allocates at ~4 GB/s (Section 4.1.4).  The arena is
built at once; the engine's usable prefix of it grows at the pinning rate
(``ProcessContext.host_usable_capacity``), the slow cache warm-up that both
the paper's system and the UVM comparator exhibit ("the problem of slow
host cache initialization").
"""

from __future__ import annotations

from repro.config import ScaleModel
from repro.simgpu.memory import Arena


def make_host_cache_arena(process_id: int, nominal_capacity: int, scale: ScaleModel) -> Arena:
    """Pre-allocate one process's contiguous host cache."""
    return Arena(f"p{process_id}-host-cache", scale.align(nominal_capacity), scale)
