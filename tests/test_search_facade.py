"""Tests for the high-level facade: SetSimilaritySearcher and StringMatcher."""

import pytest

from repro import (
    SetCollection,
    SetSimilaritySearcher,
    StringMatcher,
    algorithm_names,
)
from repro.core.tokenize import WordTokenizer


class TestSetSimilaritySearcher:
    def test_search_default_algorithm_is_sf(self, searcher, small_vocab):
        result = searcher.search([small_vocab[0]], 0.5)
        assert result.algorithm == "sf"

    def test_prepare_returns_prepared_query(self, searcher, small_vocab):
        pq = searcher.prepare([small_vocab[0], small_vocab[1]])
        assert pq.length > 0

    def test_search_prepared_reusable(self, searcher, small_vocab):
        pq = searcher.prepare([small_vocab[0], small_vocab[1]])
        a = searcher.search_prepared(pq, 0.5, "sf")
        b = searcher.search_prepared(pq, 0.5, "inra")
        assert a.ids() == b.ids()

    def test_lean_index_still_searches(self, small_collection, small_vocab):
        # SF needs neither hash indexes nor id-ordered lists, so a
        # searcher that only runs SF never builds them.
        lean = SetSimilaritySearcher(small_collection)
        result = lean.search([small_vocab[0]], 0.5)
        assert all(
            p.hash is None and p.id_file is None
            for p in lean.index._postings.values()
        )
        full = SetSimilaritySearcher(small_collection)
        assert result.ids() == full.search([small_vocab[0]], 0.5, "ta").ids()

    def test_algorithm_names_exposed(self):
        names = algorithm_names()
        assert {"sf", "hybrid", "inra", "ita", "nra", "ta", "sort-by-id"} <= set(
            names
        )


class TestSearchOrSuggest:
    def test_matched_path(self, searcher, small_vocab):
        rec = searcher.collection[0]
        results, matched = searcher.search_or_suggest(
            sorted(rec.tokens), 0.99
        )
        assert matched is True
        assert results[0].set_id == 0

    def test_suggestion_fallback(self):
        coll = SetCollection.from_token_sets([["a", "b"], ["b", "c"]])
        s = SetSimilaritySearcher(coll)
        results, matched = s.search_or_suggest(
            ["b", "x", "y", "z"], 0.95, suggestions=2
        )
        assert matched is False
        assert 0 < len(results) <= 2
        assert all(r.score < 0.95 for r in results)

    def test_nothing_overlaps(self, searcher):
        results, matched = searcher.search_or_suggest(["zz-none"], 0.5)
        assert matched is False
        assert results == []


class TestStringMatcher:
    STRINGS = [
        "Main St., Main",
        "Main St., Maine",
        "Elm Avenue",
        "Maine Street",
        "completely different",
    ]

    @pytest.fixture(scope="class")
    def matcher(self):
        return StringMatcher(self.STRINGS)

    def test_exact_string_scores_one(self, matcher):
        matches = matcher.match("Main St., Maine", threshold=0.9)
        assert matches[0][0] == "Main St., Maine"
        assert matches[0][1] == pytest.approx(1.0)

    def test_typo_still_matches(self, matcher):
        matches = matcher.match("Main St., Mane", threshold=0.4)
        texts = [t for t, _ in matches]
        assert "Main St., Maine" in texts

    def test_results_best_first(self, matcher):
        matches = matcher.match("Main Street", threshold=0.1)
        scores = [s for _, s in matches]
        assert scores == sorted(scores, reverse=True)

    def test_unrelated_query_empty(self, matcher):
        assert matcher.match("zzzzqqqq", threshold=0.5) == []

    def test_empty_query_empty(self, matcher):
        assert matcher.match("", threshold=0.5) == []
        assert matcher.best_matches("", 3) == []

    def test_best_matches_k(self, matcher):
        top = matcher.best_matches("Main Street", k=2)
        assert len(top) == 2
        assert top[0][1] >= top[1][1]

    def test_custom_tokenizer(self):
        m = StringMatcher(
            ["alpha beta", "beta gamma"], tokenizer=WordTokenizer()
        )
        matches = m.match("beta alpha", threshold=0.9)
        assert matches[0][0] == "alpha beta"

    def test_algorithm_override(self, matcher):
        a = matcher.match("Main St., Maine", 0.5, algorithm="sf")
        b = matcher.match("Main St., Maine", 0.5, algorithm="hybrid")
        assert a == b

    def test_duplicate_strings_both_returned(self):
        m = StringMatcher(["same text", "same text"])
        matches = m.match("same text", threshold=0.99)
        assert len(matches) == 2
