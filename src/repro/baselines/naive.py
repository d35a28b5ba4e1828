"""LRU / FIFO eviction ablations.

These replace Algorithm 1 inside the Score runtime's
:class:`~repro.core.cache.CacheBuffer` while keeping everything else (life
cycle, flush cascade, prefetching) identical, isolating the contribution of
the gap-aware sliding-window scoring.

Both policies are *recency seeded*: pick the least-recently-used (or
first-inserted) non-barrier checkpoint fragment, then grow a contiguous
window around it — rightward first, then leftward — until the incoming
checkpoint fits.  Unlike Algorithm 1 they are blind to flush-completion
estimates and prefetch distances, so they routinely pick windows that block
longer or evict soon-to-be-restored checkpoints.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.alloctable import Fragment
from repro.core.scoring import Costs, Window


class _RecencyPolicy:
    """Shared machinery for recency-seeded window growth."""

    name = "recency"

    def _key(self, frag: Fragment) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def select(
        self,
        fragments: Sequence[Fragment],
        size_new: int,
        costs: Costs,
        limit: Optional[int] = None,
        min_offset: int = 0,
        keep_nearer: float = 0,
    ) -> Optional[Window]:
        n = len(fragments)
        priced = [costs.cost(f) for f in fragments]

        def admissible(idx: int) -> bool:
            if priced[idx].barrier or priced[idx].s < keep_nearer:
                return False
            if limit is not None and fragments[idx].end > limit:
                return False
            if fragments[idx].offset < min_offset:
                return False
            return True

        seeds = sorted(
            (i for i in range(n) if not fragments[i].is_gap and admissible(i)),
            key=lambda i: self._key(fragments[i]),
        )
        # A pure-gap window may already suffice (e.g. after coalescing).
        gap_seeds = [i for i in range(n) if fragments[i].is_gap and admissible(i)]
        for seed in seeds + gap_seeds:
            window = self._grow(fragments, priced, seed, size_new, admissible)
            if window is not None:
                return window
        return None

    def _grow(self, fragments, costs, seed, size_new, admissible) -> Optional[Window]:
        lo = hi = seed
        total = fragments[seed].size
        while total < size_new:
            if hi + 1 < len(fragments) and admissible(hi + 1):
                hi += 1
                total += fragments[hi].size
            elif lo - 1 >= 0 and admissible(lo - 1):
                lo -= 1
                total += fragments[lo].size
            else:
                return None
        p = math.fsum(costs[i].p for i in range(lo, hi + 1))
        s = sum(costs[i].s for i in range(lo, hi + 1))
        return Window(
            start=lo,
            end=hi + 1,
            offset=fragments[lo].offset,
            size=total,
            p_score=p,
            s_score=s,
        )


class LruPolicy(_RecencyPolicy):
    """Evict around the least-recently-accessed checkpoint."""

    name = "lru"

    def _key(self, frag: Fragment) -> float:
        return frag.last_access


class FifoPolicy(_RecencyPolicy):
    """Evict around the oldest-inserted checkpoint."""

    name = "fifo"

    def _key(self, frag: Fragment) -> float:
        return frag.inserted_at
