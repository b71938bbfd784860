"""The round-robin read loop (``repro.algorithms.kernel.RoundRobin``).

iNRA, Hybrid, iTA and top-k all read their lists through one loop, so
its list-closing rules decide every one of their counters: a list closes
right after its last posting is popped, and a list whose head is past the
window (or a caller's depth cutoff) closes without that head being read.
"""

import pytest

from repro import SetCollection, SetSimilaritySearcher
from repro.algorithms.base import QueryLists
from repro.algorithms.kernel import RoundRobin
from repro.contracts import ContractViolation, set_invariant_checking
from repro.storage.pages import IOStats

INF = float("inf")

# "c" has one posting, "b" three and "a" five; the query lists come in
# decreasing idf order, so ["c", "b", "a"].
SETS = [["a", "b", "c"], ["a"], ["a", "b"], ["a", "d"], ["b", "d"], ["a", "e"]]


@pytest.fixture(scope="module")
def searcher():
    return SetSimilaritySearcher(SetCollection.from_token_sets(SETS))


@pytest.fixture
def lists(searcher):
    return QueryLists(
        searcher.index, searcher.prepare(["a", "b", "c"]), IOStats()
    )


def open_idf_squared(rr):
    return sum(
        idf for idf, done in zip(rr.lists.idf_squared, rr.complete) if not done
    )


def test_list_order_is_decreasing_idf(lists):
    assert lists.tokens == ["c", "b", "a"]
    assert [len(cursor) for cursor in lists.cursors] == [1, 3, 5]


def test_list_closes_in_the_round_that_pops_its_last_posting(lists):
    rr = RoundRobin(lists)
    popped = []
    for i, length, set_id, contribution in rr.round(INF):
        popped.append(i)
        if i == 0:
            # Already closed when its only posting is handed over...
            assert rr.complete[0]
            assert rr.frontier_key[0] == (length, set_id)
            continue  # ...and the caller skipping the posting changes nothing.
        assert not rr.complete[i]
    assert popped == [0, 1, 2]
    assert rr.complete == [True, False, False]
    assert rr.frontier_contrib[0] == 0.0
    assert rr.threshold() == pytest.approx(sum(rr.frontier_contrib[1:]))
    assert [i for i, *_ in rr.round(INF)] == [1, 2]
    assert lists.stats.elements_read == 5


def test_drains_every_list_exactly_once(lists):
    rr = RoundRobin(lists)
    rounds = 0
    while not rr.done():
        list(rr.round(INF))
        rounds += 1
    assert rounds == 5  # the longest list has five postings
    assert lists.stats.elements_read == lists.elements_total
    assert rr.threshold() == 0.0


def test_head_past_hi_closes_without_reading(lists):
    rr = RoundRobin(lists)
    assert list(rr.round(0.0)) == []
    assert rr.done()
    assert lists.stats.elements_read == 0
    assert [cursor.position for cursor in lists.cursors] == [0, 0, 0]


def test_head_past_depth_closes_without_reading(lists):
    rr = RoundRobin(lists)
    heads = []

    def past_depth(head):
        heads.append(head)
        return len(heads) == 2  # cut the second list only

    assert [i for i, *_ in rr.round(INF, past_depth)] == [0, 2]
    assert rr.complete == [True, True, False]
    assert lists.cursors[1].position == 0
    assert lists.stats.elements_read == 2


def test_seek_past_every_posting_completes_at_construction(lists):
    rr = RoundRobin(lists, lo=INF)
    assert rr.done()
    assert rr.open_idf_squared == pytest.approx(0.0)
    read_by_seek = lists.stats.elements_read
    assert list(rr.round(INF)) == []
    assert lists.stats.elements_read == read_by_seek


@pytest.mark.parametrize("hi_rank", [0, 1, 2, 3, None])
def test_open_idf_squared_tracks_the_open_lists(searcher, lists, hi_rank):
    # Each hi closes the lists at different rounds.
    lengths = sorted(set(searcher.collection.lengths()))
    hi = INF if hi_rank is None else lengths[hi_rank]
    rr = RoundRobin(lists)
    assert rr.open_idf_squared == pytest.approx(open_idf_squared(rr))
    while not rr.done():
        for _ in rr.round(hi):
            assert rr.open_idf_squared == pytest.approx(open_idf_squared(rr))
        assert rr.open_idf_squared == pytest.approx(open_idf_squared(rr))
    assert rr.open_idf_squared == pytest.approx(0.0)


def test_close_is_idempotent(lists):
    rr = RoundRobin(lists)
    rr.close(1)
    rr.close(1)
    assert rr.complete == [False, True, False]
    assert rr.open_idf_squared == pytest.approx(open_idf_squared(rr))


def test_seek_leaves_exhausted_lists_to_the_next_round(lists):
    rr = RoundRobin(lists)
    rr.seek(INF)
    assert rr.complete == [False, False, False]
    assert list(rr.round(INF)) == []
    assert rr.done()


def test_rising_frontier_contribution_is_a_contract_violation(
    lists, monkeypatch
):
    # Order Preservation makes w_i(f_i) non-increasing along a list; a
    # contribution that rises must trip the armed frontier contract.
    rises = iter(range(1, 100))
    monkeypatch.setattr(
        QueryLists, "contribution", lambda self, i, length: next(rises)
    )
    previous = set_invariant_checking(True)
    try:
        rr = RoundRobin(lists)
        list(rr.round(INF))
        with pytest.raises(ContractViolation, match="magnitude-boundedness"):
            list(rr.round(INF))
    finally:
        set_invariant_checking(previous)
