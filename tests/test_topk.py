"""Tests for the top-k extension (Section X future work)."""

import random

import pytest

from repro import SetCollection, SetSimilaritySearcher
from repro.core.errors import ConfigurationError
from repro.algorithms.topk import TopKSearcher


def brute_topk(searcher, q, k):
    full = searcher.brute_force(q, 1e-9)
    positive = [r for r in full if r.score > 0.0]
    return [(r.set_id, round(r.score, 9)) for r in positive[:k]]


class TestTopKCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 5, 10, 50])
    def test_matches_brute_force(self, searcher, small_vocab, k):
        rng = random.Random(k)
        for _ in range(10):
            q = rng.sample(small_vocab, rng.randint(1, 6))
            got = [
                (r.set_id, round(r.score, 9))
                for r in searcher.top_k(q, k).results
            ]
            assert got == brute_topk(searcher, q, k)

    def test_k_larger_than_matches(self):
        coll = SetCollection.from_token_sets([["a"], ["a", "b"], ["z"]])
        s = SetSimilaritySearcher(coll)
        result = s.top_k(["a"], 100)
        assert set(result.ids()) == {0, 1}  # 'z' has score 0, excluded

    def test_exact_match_ranks_first(self, searcher, small_vocab):
        rng = random.Random(77)
        rec = searcher.collection[rng.randrange(len(searcher.collection))]
        result = searcher.top_k(sorted(rec.tokens), 3)
        assert result.results[0].score == pytest.approx(1.0)

    def test_ties_broken_by_id(self):
        coll = SetCollection.from_token_sets([["a", "b"]] * 4)
        s = SetSimilaritySearcher(coll)
        assert s.top_k(["a", "b"], 2).ids() == [0, 1]

    def test_invalid_k(self, searcher, small_vocab):
        with pytest.raises(ConfigurationError):
            searcher.top_k([small_vocab[0]], 0)

    def test_unseen_tokens_empty(self, searcher):
        assert len(searcher.top_k(["nope-token"], 5)) == 0

    def test_scores_descending(self, searcher, small_vocab):
        rng = random.Random(3)
        q = rng.sample(small_vocab, 5)
        scores = [r.score for r in searcher.top_k(q, 20).results]
        assert scores == sorted(scores, reverse=True)


class TestTopKEfficiency:
    def test_prunes_for_small_k(self, word_searcher, word_database):
        from repro.core.tokenize import QGramTokenizer

        collection, words = word_database
        tok = QGramTokenizer(q=3)
        rng = random.Random(9)
        word = words[rng.randrange(len(words))]
        q = tok.tokens(word)
        result = word_searcher.top_k(q, 1)
        # The dynamic threshold must avoid reading the whole lists.
        assert result.stats.elements_read < result.elements_total

    def test_direct_searcher_use(self, searcher, small_vocab):
        topk = TopKSearcher(searcher.index)
        query = searcher.prepare([small_vocab[0], small_vocab[1]])
        result = topk.search(query, 5)
        assert len(result) <= 5

    def test_without_skip_lists(self, searcher, small_vocab):
        topk = TopKSearcher(searcher.index, use_skip_lists=False)
        query = searcher.prepare([small_vocab[0]])
        got = [(r.set_id, round(r.score, 9)) for r in topk.search(query, 5).results]
        assert got == brute_topk(searcher, [small_vocab[0]], 5)


class TestTopKProperty:
    def test_randomized_consistency(self):
        rng = random.Random(123)
        vocab = [f"w{i}" for i in range(30)]
        sets = [rng.sample(vocab, rng.randint(1, 7)) for _ in range(150)]
        s = SetSimilaritySearcher(SetCollection.from_token_sets(sets))
        for _ in range(30):
            q = rng.sample(vocab, rng.randint(1, 5))
            k = rng.choice([1, 3, 7, 20])
            got = [
                (r.set_id, round(r.score, 9)) for r in s.top_k(q, k).results
            ]
            assert got == brute_topk(s, q, k)
