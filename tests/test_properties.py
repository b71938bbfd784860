"""Tests for the Section IV semantic properties, incl. hypothesis checks."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SetCollection, SetSimilaritySearcher
from repro.algorithms.base import QueryLists
from repro.algorithms.kernel import RoundRobin, admission_bound
from repro.core.errors import InvalidThresholdError
from repro.core.properties import (
    best_case_score,
    lambda_cutoffs,
    length_bounds,
    magnitude_upper_bound,
    tf_boosted_length_bounds,
    validate_threshold,
    within_length_bounds,
)
from repro.core.similarity import idf_similarity
from repro.core.weights import IdfStatistics
from repro.storage.pages import IOStats


class TestValidateThreshold:
    @pytest.mark.parametrize("tau", [0.01, 0.5, 1.0])
    def test_valid(self, tau):
        assert validate_threshold(tau) == tau

    @pytest.mark.parametrize("tau", [0.0, -0.1, 1.0001, 2.0])
    def test_invalid(self, tau):
        with pytest.raises(InvalidThresholdError):
            validate_threshold(tau)


class TestLengthBounds:
    def test_window(self):
        lo, hi = length_bounds(10.0, 0.5)
        assert lo == pytest.approx(5.0)
        assert hi == pytest.approx(20.0)

    def test_tau_one_pins_length(self):
        lo, hi = length_bounds(7.0, 1.0)
        assert lo == pytest.approx(7.0) == pytest.approx(hi)

    def test_within(self):
        assert within_length_bounds(5.0, 10.0, 0.5)
        assert within_length_bounds(20.0, 10.0, 0.5)
        assert not within_length_bounds(4.99, 10.0, 0.5)
        assert not within_length_bounds(20.01, 10.0, 0.5)

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_window_contains_query_length(self, qlen, tau):
        lo, hi = length_bounds(qlen, tau)
        assert lo <= qlen <= hi + 1e-9


def _random_universe(rng, n_sets=40, vocab=25):
    tokens = [f"t{i}" for i in range(vocab)]
    sets = [
        frozenset(rng.sample(tokens, rng.randint(1, 8)))
        for _ in range(n_sets)
    ]
    return tokens, sets, IdfStatistics.from_sets(sets)


class TestTheorem1:
    """Theorem 1: I(q,s) >= tau implies the length window — exhaustively
    checked on random universes."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("tau", [0.3, 0.6, 0.9, 1.0])
    def test_answers_inside_window(self, seed, tau):
        rng = random.Random(seed)
        tokens, sets, stats = _random_universe(rng)
        q = frozenset(rng.sample(tokens, rng.randint(1, 6)))
        qlen = stats.length(q)
        lo, hi = length_bounds(qlen, tau)
        for s in sets:
            score = idf_similarity(q, s, stats)
            if score >= tau:
                slen = stats.length(s)
                assert lo - 1e-9 <= slen <= hi + 1e-9

    def test_bounds_are_tight(self):
        # Case 1 (q ⊂ s) attains the upper bound; case 2 (s ⊂ q) the lower.
        sets = [{"a", "b"}, {"a"}, {"a", "b", "c"}]
        stats = IdfStatistics.from_sets(sets)
        q = {"a", "b"}
        sup = {"a", "b", "c"}
        sub = {"a"}
        tau_up = idf_similarity(q, sup, stats)
        # At threshold == score, the superset's length equals len(q)/tau.
        assert stats.length(sup) == pytest.approx(
            stats.length(q) / tau_up
        )
        tau_down = idf_similarity(q, sub, stats)
        assert stats.length(sub) == pytest.approx(
            tau_down * stats.length(q)
        )


class TestLambdaCutoffs:
    def test_equation_two(self):
        idf_sq = [9.0, 4.0, 1.0]
        qlen = 2.0
        tau = 0.5
        lam = lambda_cutoffs(idf_sq, qlen, tau)
        assert lam[0] == pytest.approx((9 + 4 + 1) / (0.5 * 2))
        assert lam[1] == pytest.approx((4 + 1) / (0.5 * 2))
        assert lam[2] == pytest.approx(1 / (0.5 * 2))

    def test_non_increasing(self):
        lam = lambda_cutoffs([5.0, 5.0, 0.5, 0.1], 3.0, 0.7)
        assert all(a >= b for a, b in zip(lam, lam[1:]))

    def test_lambda_one_equals_theorem_upper_bound(self):
        # When the idf² list covers the whole query, λ_1 == len(q)/τ.
        idf_sq = [4.0, 1.0]
        qlen = math.sqrt(sum(idf_sq))
        lam = lambda_cutoffs(idf_sq, qlen, 0.8)
        _lo, hi = length_bounds(qlen, 0.8)
        assert lam[0] == pytest.approx(hi)

    def test_zero_query_length(self):
        assert lambda_cutoffs([1.0], 0.0, 0.5) == [0.0]

    def test_empty(self):
        assert lambda_cutoffs([], 1.0, 0.5) == []


@pytest.fixture
def three_lists():
    """Open lists for the query {a, b, c}; c's list has one posting."""
    searcher = SetSimilaritySearcher(
        SetCollection.from_token_sets([["a", "b"], ["a"], ["b", "c"]])
    )
    return QueryLists(
        searcher.index, searcher.prepare(["a", "b", "c"]), IOStats()
    )


class TestFrontierThreshold:
    """``F = Σ_i w_i(f_i)`` over the open lists (``RoundRobin.threshold``)."""

    @staticmethod
    def first_round(lists):
        rr = RoundRobin(lists)
        heads = {i: w for i, _len, _id, w in rr.round(float("inf"))}
        return rr, heads

    def test_sum(self, three_lists):
        rr, heads = self.first_round(three_lists)
        open_lists = [i for i in heads if not rr.complete[i]]
        assert len(open_lists) == 2
        assert rr.threshold() == pytest.approx(sum(heads[i] for i in open_lists))

    def test_none_is_exhausted(self, three_lists):
        # A complete list contributes nothing, whatever its last frontier.
        rr, heads = self.first_round(three_lists)
        assert rr.complete.count(True) == 1  # c's only posting was popped
        rr.close(rr.complete.index(False))
        open_lists = [i for i in heads if not rr.complete[i]]
        assert len(open_lists) == 1
        assert rr.threshold() == pytest.approx(heads[open_lists[0]])

    def test_all_exhausted(self, three_lists):
        rr, _heads = self.first_round(three_lists)
        for i in range(len(three_lists)):
            rr.close(i)
        assert rr.threshold() == 0.0


class TestMagnitudeBound:
    def test_basic(self):
        ub = magnitude_upper_bound(3.0, 2.0, 1.2, known_score=0.1)
        assert ub == pytest.approx(0.1 + 1.2 / 6.0)
        # Theorem 1 case 2 caps the bound at len(s)/len(q) ...
        assert magnitude_upper_bound(2.0, 3.0, 12.0, 0.1) == pytest.approx(
            2.0 / 3.0
        )
        # ... and the best case caps the open idf² at len(s)².
        assert best_case_score(2.0, 3.0, 12.0) == pytest.approx(4.0 / 6.0)
        assert best_case_score(3.0, 2.0, 1.2) == pytest.approx(1.2 / 6.0)

    def test_zero_denominator(self):
        assert magnitude_upper_bound(0.0, 3.0, 1.0, 0.2) == 0.2
        assert best_case_score(0.0, 3.0, 1.0) == 0.0

    @given(
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=0.1, max_value=50),
        st.lists(st.floats(min_value=0, max_value=10), max_size=6),
        st.floats(min_value=0, max_value=1),
    )
    def test_at_least_known_score(self, slen, qlen, idf_sq, known):
        ub = magnitude_upper_bound(slen, qlen, sum(idf_sq), known)
        assert ub >= known - 1e-12
        assert ub <= max(known, slen / qlen) + 1e-12


@pytest.fixture(scope="module")
def two_lists():
    """Open lists for the query {a, b} over a tiny corpus."""
    searcher = SetSimilaritySearcher(
        SetCollection.from_token_sets([["a", "b"], ["a"], ["b", "c"]])
    )
    return QueryLists(searcher.index, searcher.prepare(["a", "b"]), IOStats())


class TestOrderPreservation:
    """A list whose frontier key has reached a set's ``(len, id)`` key
    without showing the set cannot contain it, so the admission bound
    leaves that list out."""

    @staticmethod
    def bound(lists, frontier):
        # A set of length 10 (so the len(s)² cap stays slack) first seen
        # in list 0, with both lists open and list 1's frontier at
        # ``frontier``.
        return admission_bound(lists, 0, 10.0, 5, [0, 1], [None, frontier])

    @staticmethod
    def bound_over(lists, *indexes):
        open_idf_sq = sum(lists.idf_squared[i] for i in indexes)
        return best_case_score(10.0, lists.query.length, open_idf_sq)

    def test_entry_precedes_by_length(self, two_lists):
        # A shorter frontier has not reached the set, whatever its id.
        assert self.bound(two_lists, (9.0, 99)) == self.bound_over(
            two_lists, 0, 1
        )
        assert self.bound(two_lists, (11.0, 1)) == self.bound_over(
            two_lists, 0
        )

    def test_entry_precedes_tie_by_id(self, two_lists):
        assert self.bound(two_lists, (10.0, 4)) == self.bound_over(
            two_lists, 0, 1
        )
        assert self.bound(two_lists, (10.0, 6)) == self.bound_over(
            two_lists, 0
        )

    def test_equal_entries_not_preceding(self, two_lists):
        assert self.bound(two_lists, (10.0, 5)) == self.bound_over(
            two_lists, 0
        )

    def test_order_same_in_all_lists(self):
        # Property 1: with per-list contribution idf²/(len·len(q)), the
        # relative order of two sets is the same in every list.
        sets = [{"a", "b"}, {"a", "b", "c", "d"}]
        stats = IdfStatistics.from_sets(sets)
        len0, len1 = stats.length(sets[0]), stats.length(sets[1])
        qlen = 3.0
        for token in ["a", "b"]:
            w0 = stats.idf_squared(token) / (len0 * qlen)
            w1 = stats.idf_squared(token) / (len1 * qlen)
            assert (w0 > w1) == (len0 < len1)


class TestTfBoostedBounds:
    def test_widens_both_sides(self):
        lo, hi = length_bounds(10.0, 0.5)
        blo, bhi = tf_boosted_length_bounds(10.0, 0.5, max_tf=2.0)
        assert blo < lo and bhi > hi

    def test_max_tf_one_is_identity(self):
        assert tf_boosted_length_bounds(10.0, 0.5, 1.0) == pytest.approx(
            length_bounds(10.0, 0.5)
        )

    def test_invalid_max_tf(self):
        with pytest.raises(ValueError):
            tf_boosted_length_bounds(10.0, 0.5, 0.5)
