"""Tests for cost estimation and automatic algorithm choice."""

import random

import pytest

from repro import SetCollection, SetSimilaritySearcher
from repro.core.analysis import (
    choose_algorithm,
    estimate_cost,
    explain_choice,
    window_count,
)


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(21)
    vocab = [f"t{i}" for i in range(30)]
    sets = [rng.sample(vocab, rng.randint(1, 7)) for _ in range(300)]
    coll = SetCollection.from_token_sets(sets)
    return SetSimilaritySearcher(coll), vocab


class TestWindowCount:
    def test_full_window_is_list_length(self, setup):
        searcher, vocab = setup
        token = vocab[0]
        n = searcher.index.list_length(token)
        assert window_count(searcher.index, token, 0.0, 1e9) == n

    def test_empty_window(self, setup):
        searcher, vocab = setup
        assert window_count(searcher.index, vocab[0], 1e8, 1e9) == 0

    def test_unknown_token(self, setup):
        searcher, _v = setup
        assert window_count(searcher.index, "zzz", 0.0, 1e9) == 0

    def test_matches_actual_scan(self, setup):
        searcher, vocab = setup
        token = vocab[3]
        lo, hi = 2.0, 6.0
        cursor = searcher.index.cursor(token)
        actual = 0
        while not cursor.exhausted():
            ln, _ = cursor.next()
            if lo <= ln <= hi:
                actual += 1
        assert window_count(searcher.index, token, lo, hi) == actual


class TestEstimate:
    def test_window_shrinks_with_tau(self, setup):
        searcher, vocab = setup
        query = searcher.prepare(vocab[:4])
        low = estimate_cost(searcher.index, query, 0.3)
        high = estimate_cost(searcher.index, query, 0.95)
        assert high.window_postings <= low.window_postings
        assert 0.0 <= high.window_fraction <= low.window_fraction <= 1.0

    def test_predicts_sf_reads(self, setup):
        # The estimate upper-bounds what SF actually reads in-window
        # (SF can stop earlier thanks to λ and candidate pruning).
        searcher, vocab = setup
        rng = random.Random(4)
        for _ in range(10):
            q = rng.sample(vocab, 4)
            query = searcher.prepare(q)
            est = estimate_cost(searcher.index, query, 0.8)
            result = searcher.search(q, 0.8, algorithm="sf")
            slack = 16 * est.num_lists  # skip-list landing tails
            assert result.stats.elements_read <= est.window_postings + slack

    def test_unseen_tokens_ignored(self, setup):
        searcher, vocab = setup
        query = searcher.prepare([vocab[0], "zzz"])
        est = estimate_cost(searcher.index, query, 0.5)
        assert est.num_lists == 1


class TestChoice:
    def test_low_threshold_prefers_merge(self, setup):
        searcher, vocab = setup
        query = searcher.prepare(vocab[:4])
        # At a tiny tau the window covers ~everything.
        assert choose_algorithm(searcher.index, query, 0.01) == "sort-by-id"

    def test_default_is_sf(self, setup):
        searcher, vocab = setup
        query = searcher.prepare(vocab[:4])
        assert choose_algorithm(searcher.index, query, 0.8) in ("sf", "ita")

    def test_auto_spec_returns_correct_answers(self, setup):
        searcher, vocab = setup
        rng = random.Random(8)
        for tau in (0.05, 0.5, 0.95):
            q = rng.sample(vocab, 4)
            auto = {
                (r.set_id, round(r.score, 9))
                for r in searcher.search(q, tau, algorithm="auto").results
            }
            ref = {
                (r.set_id, round(r.score, 9))
                for r in searcher.brute_force(q, tau)
            }
            assert auto == ref

    def test_explain_choice_fields(self, setup):
        searcher, vocab = setup
        query = searcher.prepare(vocab[:3])
        info = explain_choice(searcher.index, query, 0.8)
        assert set(info) == {
            "num_lists", "total_postings", "window_postings",
            "window_fraction", "algorithm",
        }

    def test_explain_query_text(self, setup):
        from repro.core.analysis import explain_query

        searcher, vocab = setup
        query = searcher.prepare([vocab[0], vocab[1], "zz-unseen"])
        text = explain_query(searcher.index, query, 0.8)
        assert "length window" in text
        assert "λ" in text
        assert "no postings" in text  # the unseen token's line
        assert "chosen algorithm" in text
        # One numbered line per query token.
        assert text.count("idf²") == 2
