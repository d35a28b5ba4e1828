"""Property test: the O(n) sliding window matches brute-force search.

For random small fragment tables, Algorithm 1's two-pointer scan must find
the first window with exactly the optimal (p_score, -s_score) among all
contiguous admissible windows large enough for the incoming checkpoint, its
p_score summed exactly (``math.fsum``), whether its costs were memoised
before the scan or filled during it.
"""

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alloctable import AllocTable
from repro.core.catalog import CheckpointRecord
from repro.core.scoring import FragmentCost, ScorePolicy
from tests.scoring_oracle import brute_force, select


def build_random_table(layout: List[Tuple[bool, int]], capacity: int) -> AllocTable:
    table = AllocTable(capacity)
    offset = 0
    ckpt_id = 0
    for is_ckpt, size in layout:
        if offset + size > capacity:
            break
        if is_ckpt:
            table.insert(CheckpointRecord(ckpt_id, size, size, 0), size, offset)
            ckpt_id += 1
        offset += size
    return table


def hashed_cost(seed):
    """Deterministic pseudo-random per-checkpoint costs, including barriers."""

    def cost_of(frag) -> FragmentCost:
        if frag.is_gap:
            return FragmentCost(p=0.0, s=100.0, barrier=False)
        cid = frag.record.ckpt_id
        h = (cid * 2654435761 + seed) & 0xFFFF
        return FragmentCost(
            p=float(h % 5),
            s=float((h >> 4) % 7),
            barrier=(h >> 8) % 5 == 0,
        )

    return cost_of


#: p values whose running float sums drift: binary fractions that do not
#: add exactly, a small odd flush estimate and both penalty constants.
FLOAT_P = (0.0, 0.1, 0.2, 0.0052153125, 1e8, 1e9)


def float_cost(seed):
    """:func:`hashed_cost` with p drawn from :data:`FLOAT_P`."""
    hashed = hashed_cost(seed)

    def cost_of(frag) -> FragmentCost:
        cost = hashed(frag)
        if frag.is_gap or cost.barrier:
            return cost
        h = (frag.record.ckpt_id * 40503 + seed) & 0xFFFF
        return cost._replace(p=FLOAT_P[h % len(FLOAT_P)])

    return cost_of


def check_against_brute_force(fragments, size_new, cost_of, **region):
    window = select(ScorePolicy(), fragments, size_new, cost_of, **region)
    expected = brute_force(fragments, size_new, cost_of, **region)
    if expected is None:
        assert window is None
        return
    assert window is not None
    assert window.size >= size_new
    assert ((window.p_score, -window.s_score), window.start, window.end) == expected
    return window


@st.composite
def scenario(draw):
    layout = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(1, 8)),
            min_size=1,
            max_size=14,
        )
    )
    size_new = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**16))
    return layout, size_new, seed


@given(scenario())
@settings(max_examples=200, deadline=None)
def test_two_pointer_matches_brute_force(data):
    layout, size_new, seed = data
    capacity = 64
    table = build_random_table(layout, capacity)
    check_against_brute_force(table.fragments(), size_new, hashed_cost(seed))


@given(scenario(), st.integers(0, 64), st.integers(0, 64), st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_exact_p_sums_match_brute_force(data, limit, min_offset, keep_nearer):
    """Float p from :data:`FLOAT_P`: the window and its p_score are those of
    the exact (``math.fsum``) oracle, never a drifted running sum's — also
    in a region, and with the members nearer than ``keep_nearer`` kept."""
    layout, size_new, seed = data
    fragments = build_random_table(layout, 64).fragments()
    check_against_brute_force(fragments, size_new, float_cost(seed))
    check_against_brute_force(
        fragments, size_new, float_cost(seed), limit=limit, min_offset=min_offset,
        keep_nearer=keep_nearer,
    )


@given(scenario(), st.integers(0, 64))
@settings(max_examples=100, deadline=None)
def test_two_pointer_respects_limit(data, limit):
    layout, size_new, seed = data
    table = build_random_table(layout, 64)
    fragments = table.fragments()

    def cost_of(frag) -> FragmentCost:
        return FragmentCost(p=0.0, s=0.0, barrier=False)

    window = select(ScorePolicy(), fragments, size_new, cost_of, limit=limit)
    if window is not None:
        assert fragments[window.end - 1].end <= limit
        assert window.size >= size_new


@given(scenario(), st.integers(0, 64), st.integers(0, 64))
@settings(max_examples=200, deadline=None)
def test_two_pointer_matches_brute_force_in_region(data, limit, min_offset):
    """Full oracle with barriers AND both region restrictions combined."""
    layout, size_new, seed = data
    table = build_random_table(layout, 64)
    fragments = table.fragments()
    window = check_against_brute_force(
        fragments, size_new, hashed_cost(seed), limit=limit, min_offset=min_offset
    )
    if window is not None:
        assert window.offset >= min_offset
        assert fragments[window.end - 1].end <= limit
