"""Micro-benchmarks of the runtime's hot data structures.

These use pytest-benchmark conventionally (many rounds): the O(n) sliding
window selection, allocation-table churn, and restore-queue distance
queries — the operations on the metadata critical path whose cost the paper
explicitly bounds ("a long response time may delay the data transfer").
"""

import pytest

from repro.core.alloctable import AllocTable
from repro.core.catalog import CheckpointRecord
from repro.core.restore_queue import RestoreQueue
from repro.core.scoring import Costs, ScorePolicy, exact


def _rec(ckpt_id, size=10):
    return CheckpointRecord(ckpt_id, size, size, 0)


def _full_table(n):
    t = AllocTable(10 * n)
    for i in range(n):
        t.insert(_rec(i), 10, i * 10)
    return t


@pytest.mark.benchmark(group="micro")
@pytest.mark.parametrize("n", [64, 512])
def test_scoring_selection(benchmark, n):
    table = _full_table(n)
    policy = ScorePolicy()
    costs = Costs(fill=None)  # every member memoised: the scan reads costs inline
    for frag in table.fragments():
        costs.p[frag.record.ckpt_id] = exact(float(frag.offset % 7))
        costs.s[frag.record.ckpt_id] = frag.offset % 11

    window = benchmark(lambda: policy.select(table.fragments(), 25, costs))
    assert window is not None


@pytest.mark.benchmark(group="micro")
def test_alloctable_insert_remove_churn(benchmark):
    def churn():
        t = AllocTable(1000)
        for i in range(50):
            t.insert(_rec(i), 10, t.find_gap(10))
        for i in range(0, 50, 2):
            t.remove(i)
        for i in range(50, 70):
            offset = t.find_gap(10)
            t.insert(_rec(i), 10, offset)
        return t

    table = benchmark(churn)
    table.check_invariants()


@pytest.mark.benchmark(group="micro")
def test_restore_queue_distance(benchmark):
    q = RestoreQueue()
    for v in range(2000):
        q.enqueue(v)
    for v in range(0, 1000, 2):
        q.consume(v)

    def probe():
        total = 0
        for v in range(1000, 2000, 50):
            total += q.distance(v)
        return total

    assert benchmark(probe) > 0
