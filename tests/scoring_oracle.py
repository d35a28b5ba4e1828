"""Test helpers for Algorithm 1: callback costs as a cost table, and the
brute-force reference scan.

A policy reads its costs from a :class:`~repro.core.scoring.Costs` table; a
test states them as a callback ``Fragment -> FragmentCost``.  :func:`select`
runs the policy on the callback's costs twice — every member memoised up
front (the scan reads them inline) and every member costed by ``fill`` as
the scan reaches it — and checks both runs pick the same window.
"""

import math

from repro.core.scoring import BARRIER, Costs, exact


def costs_of(cost_of, fragments, memoised=False) -> Costs:
    """``cost_of``'s costs for ``fragments`` as a table; ``memoised`` fills
    every member before the scan."""
    costs = Costs(fill=None)
    members = {frag.record.ckpt_id: frag for frag in fragments if not frag.is_gap}
    gaps = [frag for frag in fragments if frag.is_gap]
    if gaps:
        gap = cost_of(gaps[0])
        assert gap.p == 0.0 and not gap.barrier, "a gap is free and never a barrier"
        costs.gap_s = gap.s

    def fill(record):
        cost = cost_of(members[record.ckpt_id])
        costs.s[record.ckpt_id] = cost.s
        p = costs.p[record.ckpt_id] = BARRIER if cost.barrier else exact(cost.p)
        return p

    costs.fill = fill
    if memoised:
        for frag in members.values():
            fill(frag.record)
    return costs


def select(policy, fragments, size_new, cost_of, **kwargs):
    """``policy.select`` over ``cost_of``'s costs, memoised and filled."""
    filled = policy.select(fragments, size_new, costs_of(cost_of, fragments), **kwargs)
    memoised = policy.select(
        fragments, size_new, costs_of(cost_of, fragments, memoised=True), **kwargs
    )
    assert filled == memoised
    return memoised


def brute_force(fragments, size_new, cost_of, limit=None, min_offset=0, keep_nearer=0):
    """All-pairs Algorithm 1: each start's shortest admissible window, its p
    summed with ``math.fsum``.  Returns ``((p, -s), start, end)`` of the
    first best window, or ``None``."""
    best = None
    for i in range(len(fragments)):
        total, ps, s = 0, [], 0.0
        for j in range(i, len(fragments)):
            frag, cost = fragments[j], cost_of(fragments[j])
            if (
                cost.barrier
                or cost.s < keep_nearer
                or frag.offset < min_offset
                or (limit is not None and frag.end > limit)
            ):
                break
            total += frag.size
            ps.append(cost.p)
            s += cost.s
            if total >= size_new:
                key = (math.fsum(ps), -s)
                if best is None or key < best[0]:
                    best = (key, i, j + 1)
                break  # extending further only worsens or equals
    return best
