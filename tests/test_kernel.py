"""The round-robin read loop (``repro.algorithms.kernel.RoundRobin``).

NRA, TA, iNRA, Hybrid, iTA and top-k all read their lists through one
loop, so its list-closing rules decide every one of their counters: a list
closes right after its last posting is popped, and a list whose head is
past the window (or a caller's depth cutoff) closes without that head
being read.  Pops are charged a page at a time, so the ledger is read
after the ``with`` block that settles it.
"""

import random

import pytest

from repro import SetCollection, SetSimilaritySearcher
from repro.algorithms.base import QueryLists
from repro.algorithms.kernel import RoundRobin
from repro.algorithms.streaming import stream_search
from repro.algorithms.topk import TopKSearcher
from repro.contracts import ContractViolation, set_invariant_checking
from repro.core.errors import DeadlineExceeded
from repro.storage.invlist import WeightOrderCursor
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
    popped = []
    with RoundRobin(lists) as rr:
        for i, length, set_id, contribution in rr.round(INF):
            popped.append(i)
            if i == 0:
                # Already closed when its only posting is handed over...
                assert rr.complete[0]
                assert rr.frontier_key[0] == (length, set_id)
                continue  # ...and the caller skipping it changes nothing.
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
    asked = []

    def depth_limit():
        asked.append(1)
        return -INF if len(asked) == 2 else INF  # cut the second list only

    with RoundRobin(lists) as rr:
        assert [i for i, *_ in rr.round(INF, depth_limit)] == [0, 2]
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


def test_close_charges_the_pops_of_its_page_at_once(lists):
    with RoundRobin(lists) as rr:
        for i, *_ in rr.round(INF):
            if i == 1:
                rr.close(1)  # a caller's close, after the pop
                assert lists.cursors[1].position == 1
                assert lists.stats.elements_read == 2  # lists 0 and 1
        rr.close(1)  # idempotent: nothing is charged twice
        assert lists.cursors[1].position == 1
    assert lists.stats.elements_read == 3


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


def test_open_and_closed_mask_follow_complete(lists):
    def agree(rr):
        assert rr.open == [i for i, done in enumerate(rr.complete) if not done]
        assert rr.closed_mask == sum(
            1 << i for i, done in enumerate(rr.complete) if done
        )
        assert rr.done() == (not rr.open)

    with RoundRobin(lists) as rr:
        agree(rr)
        while not rr.done():
            for _ in rr.round(INF):
                agree(rr)
            agree(rr)


# ---------------------------------------------------------------------------
# The ledger: pops are charged per page, and settled on every exit path
# ---------------------------------------------------------------------------
#
# ``RoundRobin`` charges its pops with one ``advance(n)`` per page end,
# close and seek, and settles the rest when its block is left.  Whatever
# way a read ends, ``elements_read`` must then equal the postings popped
# plus what the length seeks charged.


class LedgerProbe:
    """Counts the postings ``RoundRobin.round`` hands out, the postings
    ``RoundRobin.skip_idle`` pops in bulk (its rounds times the open lists)
    and the elements the length seeks charge, by wrapping all three for
    one test."""

    def __init__(self, monkeypatch):
        self.pops = 0
        self.seek_charged = 0
        self.instances = []
        round_ = RoundRobin.round
        skip_idle = RoundRobin.skip_idle
        seek = WeightOrderCursor.seek_length_ge

        def counted_round(rr, *args, **kwargs):
            self.instances.append(rr)
            for item in round_(rr, *args, **kwargs):
                self.pops += 1
                yield item

        def counted_skip_idle(rr, *args, **kwargs):
            rounds = skip_idle(rr, *args, **kwargs)
            self.pops += rounds * len(rr.open)
            return rounds

        def counted_seek(cursor, lo):
            before = cursor._stats.elements_read
            seek(cursor, lo)
            self.seek_charged += cursor._stats.elements_read - before

        monkeypatch.setattr(RoundRobin, "round", counted_round)
        monkeypatch.setattr(RoundRobin, "skip_idle", counted_skip_idle)
        monkeypatch.setattr(WeightOrderCursor, "seek_length_ge", counted_seek)

    def check(self, stats):
        assert self.pops > 0
        assert stats.elements_read == self.pops + self.seek_charged


def _ledger_sets():
    rng = random.Random(11)
    vocabulary = [f"t{i}" for i in range(24)]
    weights = [1.0 / (rank + 1) for rank in range(len(vocabulary))]
    sets = []
    for _ in range(240):
        size = rng.randint(2, 7)
        sets.append(set(rng.choices(vocabulary, weights, k=size)))
    return sets


@pytest.fixture(scope="module")
def paged_searcher():
    # Four postings a page, so a read crosses many pages mid-round.
    return SetSimilaritySearcher(
        SetCollection.from_token_sets(_ledger_sets()), page_capacity=4
    )


LEDGER_QUERY = ["t0", "t1", "t2", "t3", "t5", "t8"]


@pytest.mark.parametrize("algorithm", ["nra", "ta", "inra", "hybrid", "ita"])
@pytest.mark.parametrize("tau", [0.3, 0.7])
def test_ledger_equals_pops_on_completion(
    paged_searcher, monkeypatch, algorithm, tau
):
    probe = LedgerProbe(monkeypatch)
    result = paged_searcher.search(LEDGER_QUERY, tau, algorithm=algorithm)
    probe.check(result.stats)


def test_ledger_equals_pops_on_inra_early_break(paged_searcher, monkeypatch):
    probe = LedgerProbe(monkeypatch)
    result = paged_searcher.search(LEDGER_QUERY, 0.9, algorithm="inra")
    (rr,) = set(probe.instances)
    assert rr.open, "the search should stop with lists still open"
    probe.check(result.stats)


class _TripAtPageEntry(IOStats):
    """A ledger whose deadline passes at its ``allowed + 1``-th check."""

    __slots__ = ("allowed",)

    def __init__(self, allowed):
        super().__init__()
        self.deadline = 0.0
        self.allowed = allowed

    def check_deadline(self):
        self.allowed -= 1
        if self.allowed < 0:
            raise DeadlineExceeded("test deadline")


def test_ledger_equals_pops_on_deadline_mid_round(paged_searcher, monkeypatch):
    searcher = paged_searcher
    query = searcher.prepare(LEDGER_QUERY)
    # Every list holds more than a page, so round 5 enters each list's
    # second page; allowing one page per list plus one more trips the
    # deadline at list 1's entry, after list 0 has popped in that round.
    stats = _TripAtPageEntry(len(LEDGER_QUERY) + 1)
    lists = QueryLists(searcher.index, query, stats)
    assert min(len(cursor) for cursor in lists.cursors) > 4
    pops = [0] * len(lists)
    with pytest.raises(DeadlineExceeded):
        with RoundRobin(lists) as rr:
            while not rr.done():
                for i, *_ in rr.round(INF):
                    pops[i] += 1
    assert pops[0] == 5 and pops[1] == 4
    assert [cursor.position for cursor in lists.cursors] == pops
    assert stats.elements_read == sum(pops)


def test_ledger_equals_pops_when_ita_stream_is_abandoned(
    paged_searcher, monkeypatch
):
    probe = LedgerProbe(monkeypatch)
    query = paged_searcher.prepare(LEDGER_QUERY)
    stats = IOStats()
    stream = stream_search(paged_searcher.index, query, 0.3, "ita", stats)
    assert next(stream) is not None
    stream.close()
    (rr,) = set(probe.instances)
    assert rr.open, "the stream should be abandoned with lists still open"
    probe.check(stats)


@pytest.mark.parametrize("use_skip_lists", [True, False])
def test_ledger_equals_pops_across_topk_reseeks(
    paged_searcher, monkeypatch, use_skip_lists
):
    probe = LedgerProbe(monkeypatch)
    query = paged_searcher.prepare(LEDGER_QUERY)
    result = TopKSearcher(
        paged_searcher.index, use_skip_lists=use_skip_lists
    ).search(query, 3)
    assert probe.seek_charged > 0 or use_skip_lists
    probe.check(result.stats)
