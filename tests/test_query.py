"""Unit tests for PreparedQuery."""


import pytest

from repro import SetCollection
from repro.algorithms.base import QueryLists
from repro.core.errors import EmptyQueryError
from repro.core.properties import (
    best_case_score,
    lambda_cutoffs,
    magnitude_upper_bound,
)
from repro.core.query import PreparedQuery, prepare
from repro.core.weights import IdfStatistics
from repro.storage.invlist import InvertedIndex
from repro.storage.pages import IOStats

SETS = [
    {"common", "rare"},
    {"common", "mid"},
    {"common", "mid"},
    {"common"},
]


@pytest.fixture()
def stats():
    return IdfStatistics.from_sets(SETS)


@pytest.fixture()
def open_lists():
    """``QueryLists`` over an index of the same sets, per token list."""
    collection = SetCollection.from_token_sets([sorted(s) for s in SETS])
    index = InvertedIndex(collection)

    def open_for(tokens):
        query = PreparedQuery(tokens, collection.stats)
        return QueryLists(index, query, IOStats())

    return open_for


class TestPreparedQuery:
    def test_tokens_sorted_by_decreasing_idf(self, stats):
        q = PreparedQuery(["common", "rare", "mid"], stats)
        assert list(q.tokens) == ["rare", "mid", "common"]
        assert list(q.idf_squared) == sorted(q.idf_squared, reverse=True)

    def test_duplicates_collapsed(self, stats):
        q = PreparedQuery(["rare", "rare", "common"], stats)
        assert len(q) == 2

    def test_length_matches_stats(self, stats):
        tokens = ["rare", "common"]
        q = PreparedQuery(tokens, stats)
        assert q.length == pytest.approx(stats.length(tokens))

    def test_empty_query_rejected(self, stats):
        with pytest.raises(EmptyQueryError):
            PreparedQuery([], stats)

    def test_token_index_and_contains(self, stats):
        q = PreparedQuery(["rare", "common"], stats)
        assert q.token_index("rare") == 0
        assert "common" in q
        assert "mid" not in q

    def test_source_tokens_preserved(self, stats):
        q = PreparedQuery(["common", "rare", "common"], stats)
        assert q.source_tokens == ("common", "rare", "common")

    def test_tie_broken_deterministically(self, stats):
        # 'x' and 'y' both unseen -> same idf; order by token string.
        q = PreparedQuery(["y", "x"], stats)
        assert list(q.tokens) == ["x", "y"]

    def test_prepare_alias(self, stats):
        assert prepare(["rare"], stats).tokens == ("rare",)


class TestQueryMath:
    def test_bounds_delegate_to_theorem(self, stats):
        q = PreparedQuery(["rare", "common"], stats)
        lo, hi = q.bounds(0.5)
        assert lo == pytest.approx(0.5 * q.length)
        assert hi == pytest.approx(q.length / 0.5)

    def test_cutoffs_align_with_token_order(self, stats):
        q = PreparedQuery(["common", "rare", "mid"], stats)
        lam = lambda_cutoffs(q.idf_squared, q.length, 0.8)
        assert len(lam) == 3
        assert lam[0] >= lam[1] >= lam[2]
        expected_last = q.idf_squared[2] / (0.8 * q.length)
        assert lam[2] == pytest.approx(expected_last)

    def test_contribution_formula(self, open_lists):
        lists = open_lists(["rare", "common"])
        slen = 2.5
        assert lists.contribution(0, slen) == pytest.approx(
            lists.idf_squared[0] / (slen * lists.query.length)
        )

    def test_contribution_zero_guard(self, open_lists):
        assert open_lists(["rare"]).contribution(0, 0.0) == 0.0

    def test_max_unseen_score(self, stats):
        q = PreparedQuery(["rare", "mid", "common"], stats)
        slen = 2.0
        open_idf_sq = q.idf_squared[0] + q.idf_squared[2]
        expected = min(open_idf_sq, slen * slen) / (slen * q.length)
        assert best_case_score(slen, q.length, open_idf_sq) == pytest.approx(
            expected
        )

    def test_perfect_score_length(self, stats):
        # Only a set of length len(q) can score 1.0.
        q = PreparedQuery(["rare", "mid"], stats)
        everything = sum(q.idf_squared)
        for bound in (best_case_score, magnitude_upper_bound):
            assert bound(q.length, q.length, everything) == pytest.approx(1.0)
            assert bound(0.9 * q.length, q.length, everything) < 1.0
            assert bound(1.1 * q.length, q.length, everything) < 1.0

    def test_self_similarity_via_contributions(self, open_lists):
        # Summing a set's own contributions over all its tokens gives 1.0
        # when the set equals the query.
        lists = open_lists(["rare", "common"])
        total = sum(
            lists.contribution(i, lists.query.length)
            for i in range(len(lists))
        )
        assert total == pytest.approx(1.0)
