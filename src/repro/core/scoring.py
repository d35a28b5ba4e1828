"""Algorithm 1: score-based look-ahead cache eviction.

Given the fragment table of a cache arena and the size of an incoming
checkpoint, find the sequence of consecutive fragments (checkpoints and
gaps) whose eviction:

1. forms a contiguous gap large enough for the new checkpoint, and
2. minimizes ``p_score`` — the estimated total blocking time until every
   member is evictable — breaking ties by maximizing ``s_score`` — the sum
   of the members' prefetch distances (evict what will be restored last).

Gaps participate as highest-priority members: zero blocking time and a
prefetch-distance contribution above every real checkpoint.

The search is the paper's O(n) two-pointer sliding window.  Fragments that
can never become evictable by waiting (prefetched-but-unconsumed instances,
unless a forced demand eviction is permitted) act as window *barriers*: no
window may cross them, so when the right pointer hits one, the window
restarts beyond it.

The scan reads each member's cost inline from a :class:`Costs` table that
its owner keeps current (``CacheBuffer`` drops an entry on every event that
changes it), so a memoised member costs two dict reads and no Python call.
A window's ``p_score`` is exact: every p is held as an integer multiple of
2**-1074 (:func:`exact`), so the running sum never drifts and rounds once,
to what ``math.fsum`` of the members returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Sequence

from repro.core.alloctable import Fragment

#: every finite float is an integer multiple of 2**-1074 = 1 / ULPS.
ULPS = 1 << 1074
#: the memoised p of a barrier (every real p is >= 0, so a scan tests p < 0).
BARRIER = -1


def exact(p: float) -> int:
    """Finite ``p`` as the integer number of 2**-1074 units it holds."""
    num, den = p.as_integer_ratio()
    return num * (ULPS // den)


class FragmentCost(NamedTuple):
    """Scoring contributions of one fragment."""

    p: float  # estimated nominal seconds until evictable
    s: float  # prefetch-distance contribution (higher = safer to evict)
    barrier: bool  # window may not include this fragment


@dataclass(frozen=True)
class Window:
    """A chosen eviction window over ``fragments[start:end]``."""

    start: int  # first fragment index (inclusive)
    end: int  # last fragment index (exclusive)
    offset: int  # arena offset of the resulting gap
    size: int  # total bytes the window covers
    p_score: float
    s_score: float


CostFn = Callable[[Fragment], FragmentCost]


class Costs:
    """Member costs as the scan reads them.

    * ``p``: checkpoint id -> :func:`exact` p, or :data:`BARRIER`; an id
      missing from it is costed by ``fill(record)``, which stores and
      returns the entry;
    * ``s``: checkpoint id -> prefetch distance; an absent id is unhinted
      and scores ``no_hint``;
    * ``gap_s``: the s of a gap.
    """

    __slots__ = ("p", "s", "fill", "no_hint", "gap_s")

    def __init__(self, fill) -> None:
        self.p: Dict[int, int] = {}
        self.s: Dict[int, int] = {}
        self.fill = fill
        self.no_hint = self.gap_s = 0.0

    def cost(self, frag: Fragment) -> FragmentCost:
        """What the scan reads for ``frag`` (filled on a miss)."""
        record = frag.record
        if record is None:
            return FragmentCost(p=0.0, s=self.gap_s, barrier=False)
        p = self.p.get(record.ckpt_id)
        if p is None:
            p = self.fill(record)
        if p == BARRIER:
            return FragmentCost(p=math.inf, s=0.0, barrier=True)
        return FragmentCost(p / ULPS, self.s.get(record.ckpt_id, self.no_hint), False)


class ScorePolicy:
    """The paper's gap-aware sliding-window policy."""

    name = "score"

    def select(
        self,
        fragments: Sequence[Fragment],
        size_new: int,
        costs: Costs,
        limit: Optional[int] = None,
        min_offset: int = 0,
        keep_nearer: float = 0,
    ) -> Optional[Window]:
        """Best eviction window for a ``size_new``-byte checkpoint.

        ``limit`` / ``min_offset`` restrict windows to the arena region
        ``[min_offset, limit)`` (split-cache ablation, lazily-pinned
        caches); a member whose s is below ``keep_nearer`` is a barrier (a
        staging that must not evict nearer hints).  Returns ``None`` when no
        admissible window exists yet (the caller waits for state changes
        and retries).

        The right pointer admits one fragment at a time; every window that
        reaches ``size_new`` is a candidate, and the left pointer then slides
        while the window still fits, so each start is scored with its
        shortest window, in start order.  Fragments outside the region bound
        the scan instead of being tested one by one: they form a prefix and
        a suffix of the offset-sorted table.  Windows compare by their
        correctly rounded p-sums, then by s; equal exact sums skip the
        rounding, so it runs only for a candidate that could win on it.
        """
        lo, n = 0, len(fragments)
        while lo < n and fragments[lo].offset < min_offset:
            lo += 1
        if limit is not None:
            while n > lo and fragments[n - 1].offset + fragments[n - 1].size > limit:
                n -= 1
        memo, fill, distance = costs.p.get, costs.fill, costs.s.get
        no_hint, gap_s = costs.no_hint, costs.gap_s
        best_at = None
        best_p, best_exact, best_s = math.inf, math.inf, -math.inf
        i = j = lo
        window = p_sum = 0
        s_sum = 0.0
        while j < n:
            frag = fragments[j]
            j += 1
            record = frag.record
            if record is None:
                p, s = 0, gap_s
            else:
                ckpt_id = record.ckpt_id
                p = memo(ckpt_id)
                if p is None:
                    p = fill(record)
                s = distance(ckpt_id, no_hint)
            if p < 0 or s < keep_nearer:  # a barrier: restart beyond it
                i = j
                window = p_sum = 0
                s_sum = 0.0
                continue
            p_sum += p
            s_sum += s
            window += frag.size
            while window >= size_new:
                if p_sum == best_exact:
                    better = s_sum > best_s
                elif p_sum < best_exact:
                    better = s_sum > best_s or p_sum / ULPS < best_p
                else:
                    better = s_sum > best_s and p_sum / ULPS == best_p
                if better:
                    best_at = (i, j, window)
                    best_p, best_exact, best_s = p_sum / ULPS, p_sum, s_sum
                if i + 1 == j:  # a lone member leaves the window empty
                    i = j
                    window = p_sum = 0
                    s_sum = 0.0
                    break
                # slide: drop the leftmost member, read again from the memo
                frag = fragments[i]
                i += 1
                record = frag.record
                if record is None:
                    s_sum -= gap_s
                else:
                    p_sum -= memo(record.ckpt_id)
                    s_sum -= distance(record.ckpt_id, no_hint)
                window -= frag.size
        if best_at is None:
            return None
        start, end, size = best_at
        return Window(start, end, fragments[start].offset, size, best_p, best_s)


def make_cost_fn(
    state_ts: Callable[[Fragment], float],
    prefetch_distance: Callable[[Fragment], Optional[int]],
    no_hint_score: float,
) -> CostFn:
    """The reference Algorithm-1 cost function, from engine context callbacks
    (recomputed on every call; the eviction replay tests check the cache's
    :class:`Costs` against it).

    * ``state_ts(frag)`` — predicted nominal seconds until evictable
      (``math.inf`` marks a barrier);
    * ``prefetch_distance(frag)`` — position in the restore-order queue, or
      ``None`` when unhinted;
    * ``no_hint_score`` — s-contribution for unhinted checkpoints; gaps use
      ``no_hint_score + 1`` (strictly the most eviction-friendly members).
    """
    gap = FragmentCost(p=0.0, s=no_hint_score + 1.0, barrier=False)

    def cost_of(frag: Fragment) -> FragmentCost:
        if frag.is_gap:
            return gap
        ts = state_ts(frag)
        if math.isinf(ts):
            return FragmentCost(p=ts, s=0.0, barrier=True)
        distance = prefetch_distance(frag)
        return FragmentCost(ts, no_hint_score if distance is None else float(distance), False)

    return cost_of
