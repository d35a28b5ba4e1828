"""LRU / FIFO ablation eviction policies."""

from repro.core.alloctable import AllocTable
from repro.core.catalog import CheckpointRecord
from repro.core.scoring import FragmentCost
from repro.baselines.naive import FifoPolicy, LruPolicy
from tests.scoring_oracle import select


def rec(ckpt_id, size=10):
    return CheckpointRecord(ckpt_id, size, size, 0)


def build(entries, capacity=100):
    t = AllocTable(capacity)
    for ckpt_id, size, offset, inserted in entries:
        t.insert(rec(ckpt_id, size), size, offset, now=inserted)
    return t


def free_costs(barriers=()):
    def cost_of(frag):
        barrier = (not frag.is_gap) and frag.record.ckpt_id in barriers
        return FragmentCost(p=0.0, s=0.0, barrier=barrier)

    return cost_of


class TestLru:
    def test_picks_least_recently_used(self):
        t = build([(i, 10, i * 10, float(i)) for i in range(10)])
        t.touch(0, 99.0)  # ckpt 0 recently used
        w = select(LruPolicy(), t.fragments(), 10, free_costs())
        assert w is not None
        assert t.fragments()[w.start].record.ckpt_id == 1

    def test_grows_window_rightward(self):
        t = build([(i, 10, i * 10, float(i)) for i in range(10)])
        w = select(LruPolicy(), t.fragments(), 25, free_costs())
        assert w is not None
        assert w.size >= 25
        assert w.start == 0  # seeded at the oldest access (ckpt 0)

    def test_respects_barriers(self):
        t = build([(i, 10, i * 10, float(i)) for i in range(10)])
        w = select(LruPolicy(), t.fragments(), 10, free_costs(barriers={0}))
        assert w is not None
        assert t.fragments()[w.start].record.ckpt_id == 1

    def test_none_when_all_blocked(self):
        t = build([(i, 10, i * 10, float(i)) for i in range(3)], capacity=30)
        w = select(LruPolicy(), t.fragments(), 10, free_costs(barriers={0, 1, 2}))
        assert w is None

    def test_respects_limit(self):
        t = build([(i, 10, i * 10, float(9 - i)) for i in range(10)])
        # LRU seed would be ckpt 9 (oldest access), but limit excludes it.
        w = select(LruPolicy(), t.fragments(), 10, free_costs(), limit=50)
        assert w is not None
        assert t.fragments()[w.end - 1].end <= 50

    def test_respects_min_offset(self):
        t = build([(i, 10, i * 10, float(i)) for i in range(10)])
        w = select(LruPolicy(), t.fragments(), 10, free_costs(), min_offset=50)
        assert w is not None and w.offset >= 50

    def test_gap_window_when_sufficient(self):
        t = build([(1, 10, 0, 0.0)], capacity=100)  # gap [10, 100)
        w = select(LruPolicy(), t.fragments(), 50, free_costs(barriers={1}))
        assert w is not None and w.offset == 10


class TestFifo:
    def test_picks_first_inserted(self):
        t = build([(0, 10, 0, 5.0), (1, 10, 10, 1.0), (2, 10, 20, 3.0)], capacity=30)
        w = select(FifoPolicy(), t.fragments(), 10, free_costs())
        assert t.fragments()[w.start].record.ckpt_id == 1

    def test_insertion_time_not_access_time(self):
        t = build([(0, 10, 0, 5.0), (1, 10, 10, 1.0)], capacity=20)
        t.touch(1, 100.0)  # recency must not matter for FIFO
        w = select(FifoPolicy(), t.fragments(), 10, free_costs())
        assert t.fragments()[w.start].record.ckpt_id == 1

    def test_grows_leftward_at_right_edge(self):
        t = build([(i, 10, i * 10, float(9 - i)) for i in range(10)])
        # Seed = ckpt 9 at the right edge; window must grow leftward.
        w = select(FifoPolicy(), t.fragments(), 25, free_costs())
        assert w is not None
        assert w.end == 10
