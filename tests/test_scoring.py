"""Algorithm 1: gap-aware sliding-window eviction selection."""

import math


from repro.core.alloctable import AllocTable, Fragment
from repro.core.catalog import CheckpointRecord
from repro.core.scoring import FragmentCost, ScorePolicy, make_cost_fn
from tests.scoring_oracle import costs_of, select


def rec(ckpt_id, size=10):
    return CheckpointRecord(ckpt_id, size, size, 0)


def build_table(entries, capacity=100):
    """entries: list of (ckpt_id, size, offset) — rest is gaps."""
    t = AllocTable(capacity)
    for ckpt_id, size, offset in entries:
        t.insert(rec(ckpt_id, size), size, offset)
    return t


def costs_from(p_map, s_map=None, barriers=()):
    """Cost function keyed by ckpt id; gaps get (0, high)."""
    s_map = s_map or {}

    def cost_of(frag: Fragment) -> FragmentCost:
        if frag.is_gap:
            return FragmentCost(p=0.0, s=1000.0, barrier=False)
        cid = frag.record.ckpt_id
        return FragmentCost(
            p=p_map.get(cid, 0.0),
            s=float(s_map.get(cid, 0)),
            barrier=cid in barriers,
        )

    return cost_of


POLICY = ScorePolicy()


class TestSelection:
    def test_pure_gap_window(self):
        t = build_table([(1, 10, 0)])  # gap [10, 100)
        w = select(POLICY, t.fragments(), 20, costs_from({1: 5.0}))
        assert w is not None
        assert w.offset == 10 and w.p_score == 0.0

    def test_prefers_zero_p_checkpoint(self):
        # [ckpt1 10][ckpt2 10][ckpt3 10] + gap 70; need 80 → must take a
        # run including the gap plus one checkpoint: picks the cheapest run.
        t = build_table([(1, 10, 0), (2, 10, 10), (3, 10, 20)])
        w = select(POLICY, t.fragments(), 80, costs_from({1: 9.0, 2: 9.0, 3: 0.0}))
        assert w is not None
        # window [ckpt3, gap] has p=0
        assert w.p_score == 0.0
        assert w.offset == 20

    def test_tie_break_on_s_score(self):
        # full arena of 10 checkpoints, all p=0; need one slot: the window
        # with the largest prefetch distance must win.
        entries = [(i, 10, i * 10) for i in range(10)]
        t = build_table(entries)
        s_map = {i: i for i in range(10)}  # farthest = ckpt 9
        w = select(POLICY, t.fragments(), 10, costs_from({}, s_map))
        assert w is not None
        assert w.offset == 90 and w.s_score == 9.0

    def test_minimizes_p_over_s(self):
        entries = [(i, 10, i * 10) for i in range(10)]
        t = build_table(entries)
        p_map = {i: 0.0 if i == 2 else 5.0 for i in range(10)}
        s_map = {i: i for i in range(10)}
        w = select(POLICY, t.fragments(), 10, costs_from(p_map, s_map))
        assert w.offset == 20  # p wins over s

    def test_multi_fragment_window_sums_scores(self):
        entries = [(i, 10, i * 10) for i in range(10)]
        t = build_table(entries)
        p_map = {i: float(i) for i in range(10)}
        w = select(POLICY, t.fragments(), 25, costs_from(p_map))
        assert w is not None
        # cheapest run of three consecutive = [0,1,2] with p=3
        assert w.start == 0 and w.p_score == 3.0
        assert w.size == 30

    def test_barrier_splits_windows(self):
        entries = [(i, 10, i * 10) for i in range(10)]
        t = build_table(entries)
        # barrier in the middle: windows cannot cross ckpt 4
        w = select(
            POLICY, t.fragments(), 35, costs_from({i: float(i) for i in range(10)}, barriers={4})
        )
        assert w is not None
        assert not (w.start <= 4 < w.end)

    def test_all_barriers_returns_none(self):
        entries = [(i, 10, i * 10) for i in range(10)]
        t = build_table(entries)
        w = select(POLICY, t.fragments(), 10, costs_from({}, barriers=set(range(10))))
        assert w is None

    def test_impossible_size_returns_none(self):
        t = build_table([(1, 10, 0)], capacity=50)
        w = select(POLICY, t.fragments(), 60, costs_from({}))
        assert w is None

    def test_limit_excludes_tail(self):
        entries = [(i, 10, i * 10) for i in range(10)]
        t = build_table(entries)
        w = select(POLICY, t.fragments(), 10, costs_from({}, {i: i for i in range(10)}), limit=50)
        assert w is not None
        assert w.offset + 10 <= 50

    def test_min_offset_excludes_head(self):
        entries = [(i, 10, i * 10) for i in range(10)]
        t = build_table(entries)
        w = select(POLICY, t.fragments(), 10, costs_from({}), min_offset=60)
        assert w is not None
        assert w.offset >= 60

    def test_gaps_most_preferred(self):
        # [ckpt 10][gap 10][ckpt ...]: a window using the gap should win
        t = build_table([(1, 10, 0), (2, 10, 20), (3, 70, 30)])
        w = select(POLICY, t.fragments(), 10, costs_from({}, {1: 50, 2: 50, 3: 50}))
        assert w is not None
        assert w.offset == 10 and w.p_score == 0.0 and w.s_score == 1000.0

    def test_exact_p_sum_keeps_the_s_tie_break(self):
        """A running float p-sum that subtracts 0.1 and 0.2 reads 2.8e-17
        for the all-zero window [2, 4), which then loses to the zero window
        [5, 7) whatever their s; the exact sum is 0.0 and s decides."""
        t = build_table([(i, 1, i) for i in range(7)], capacity=7)
        p_map = {0: 0.1, 1: 0.2}
        s_map = {2: 9, 3: 9, 5: 1, 6: 1}
        w = select(POLICY, t.fragments(), 2, costs_from(p_map, s_map, barriers={4}))
        assert (w.start, w.end, w.p_score, w.s_score) == (2, 4, 0.0, 18.0)


class TestMakeCostFn:
    def test_gap_cost(self):
        fn = make_cost_fn(lambda f: 0.0, lambda f: None, no_hint_score=50.0)
        gap = Fragment(0, 10)
        c = fn(gap)
        assert c.p == 0.0 and c.s == 51.0 and not c.barrier

    def test_infinite_ts_is_barrier(self):
        fn = make_cost_fn(lambda f: math.inf, lambda f: None, no_hint_score=50.0)
        frag = Fragment(0, 10, rec(1))
        assert fn(frag).barrier

    def test_unhinted_gets_no_hint_score(self):
        fn = make_cost_fn(lambda f: 1.0, lambda f: None, no_hint_score=50.0)
        frag = Fragment(0, 10, rec(1))
        c = fn(frag)
        assert c.s == 50.0 and c.p == 1.0

    def test_hinted_gets_distance(self):
        fn = make_cost_fn(lambda f: 0.0, lambda f: 7, no_hint_score=50.0)
        frag = Fragment(0, 10, rec(1))
        assert fn(frag).s == 7.0


class TestComplexity:
    def test_linear_pass_on_large_table(self):
        """The two-pointer scan should evaluate each fragment's cost once."""
        n = 2000
        entries = [(i, 10, i * 10) for i in range(n)]
        t = build_table(entries, capacity=10 * n)
        calls = []

        def cost_of(frag):
            calls.append(frag)
            return FragmentCost(p=1.0, s=0.0, barrier=False)

        POLICY.select(t.fragments(), 25, costs_of(cost_of, t.fragments()))
        assert len(calls) <= n  # memoized: one evaluation per fragment

    def test_memoised_scan_computes_no_cost(self):
        """Over a fully memoised table the scan reads every cost inline."""
        n = 2000
        t = build_table([(i, 10, i * 10) for i in range(n)], capacity=10 * n)
        costs = costs_of(lambda frag: FragmentCost(1.0, 0.0, False), t.fragments(), memoised=True)
        fills = []
        fill = costs.fill
        costs.fill = lambda record: fills.append(record) or fill(record)
        w = POLICY.select(t.fragments(), 25, costs)
        assert w is not None and w.p_score == 3.0
        assert fills == []
