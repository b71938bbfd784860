"""Tests for tf-based measure selection (WeightedSelector)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SetCollection, WeightedSelector
from repro.core.errors import EmptyQueryError


@pytest.fixture(scope="module")
def multiset_setup():
    """A collection with real term frequencies (tf up to 4)."""
    rng = random.Random(55)
    vocab = [f"w{i}" for i in range(40)]
    sets = []
    for _ in range(250):
        base = rng.sample(vocab, rng.randint(1, 6))
        tokens = []
        for t in base:
            tokens.extend([t] * rng.choice([1, 1, 1, 2, 4]))
        sets.append(tokens)
    coll = SetCollection.from_token_sets(sets)
    return WeightedSelector(coll), vocab, rng


def answers(results):
    return {(r.set_id, round(r.score, 9)) for r in results}


class TestCorrectness:
    @pytest.mark.parametrize("measure", ["tfidf", "bm25", "bm25p"])
    @pytest.mark.parametrize("tau", [0.3, 0.6, 0.9])
    def test_matches_brute_force(self, multiset_setup, measure, tau):
        selector, vocab, _rng = multiset_setup
        rng = random.Random(hash((measure, tau)) & 0xFFFF)
        for _ in range(8):
            q = []
            for t in rng.sample(vocab, rng.randint(1, 5)):
                q.extend([t] * rng.choice([1, 1, 2]))
            got = answers(selector.search(q, tau, measure=measure).results)
            ref = answers(selector.brute_force(q, tau, measure=measure))
            assert got == ref, (measure, tau, q)

    def test_exact_multiset_match_scores_one(self, multiset_setup):
        selector, _vocab, _rng = multiset_setup
        rec = selector.collection[0]
        q = []
        for t, tf in rec.counts.items():
            q.extend([t] * tf)
        result = selector.search(q, 0.99, measure="tfidf")
        assert 0 in result.ids()

    def test_tf_divergence_matters_for_tfidf(self):
        coll = SetCollection.from_token_sets(
            [["a", "b"], ["a", "a", "a", "a", "b"]]
        )
        selector = WeightedSelector(coll)
        result = selector.search(["a", "b"], 0.9, measure="tfidf")
        assert 0 in result.ids()
        # The tf-skewed set scores lower than the exact multiset match.
        scores = {r.set_id: r.score for r in selector.search(
            ["a", "b"], 0.1, measure="tfidf"
        ).results}
        assert scores[0] > scores[1]

    def test_bm25p_ignores_tf(self):
        coll = SetCollection.from_token_sets(
            [["a", "b"], ["a", "a", "a", "a", "b"]]
        )
        selector = WeightedSelector(coll)
        scores = {
            r.set_id: r.score
            for r in selector.search(["a", "b"], 0.1, measure="bm25p").results
        }
        assert scores[0] == pytest.approx(scores[1])

    def test_empty_query_rejected(self, multiset_setup):
        selector, _v, _r = multiset_setup
        with pytest.raises(EmptyQueryError):
            selector.search([], 0.5)


class TestFiltering:
    def test_max_tf_computed(self, multiset_setup):
        selector, _v, _r = multiset_setup
        assert selector.max_tf == 4

    def test_tfidf_window_prunes(self, multiset_setup):
        selector, vocab, _r = multiset_setup
        rng = random.Random(1)
        q = rng.sample(vocab, 4)
        windowed = selector.search(q, 0.9, measure="tfidf")
        unwindowed = selector.search(q, 0.9, measure="bm25")
        # BM25 falls back to gather-everything-overlapping; the TF/IDF
        # boosted window must not read more.
        assert (
            windowed.stats.elements_read <= unwindowed.stats.elements_read
        )

    def test_unseen_tokens_ok(self, multiset_setup):
        selector, vocab, _r = multiset_setup
        result = selector.search([vocab[0], "zzz-unknown"], 0.3)
        ref = answers(selector.brute_force([vocab[0], "zzz-unknown"], 0.3))
        assert answers(result.results) == ref

    def test_idf_measure_accepted_for_uniformity(self, multiset_setup):
        selector, vocab, _r = multiset_setup
        result = selector.search([vocab[0]], 0.5, measure="idf")
        ref = answers(selector.brute_force([vocab[0]], 0.5, measure="idf"))
        assert answers(result.results) == ref


_TF_ONE_VOCAB = [f"t{i}" for i in range(8)]


class TestQueryTermFrequencies:
    """The TF/IDF window widens by the query's own term frequencies too:
    a query repeating a token more often than any stored set does can
    match sets shorter than a corpus-only boost admits."""

    def test_repeated_query_token_keeps_short_answer(self):
        sets = (
            [["a"]]
            + [["a", f"c{i}"] for i in range(20)]
            + [["b", "a"]]
        )
        selector = WeightedSelector(SetCollection.from_token_sets(sets))
        assert selector.max_tf == 1
        query = ["a"] * 10 + ["b"]
        ref = selector.brute_force(query, 0.8, measure="tfidf")
        assert [r.set_id for r in ref] == [0]
        got = selector.search(query, 0.8, measure="tfidf")
        assert answers(got.results) == answers(ref)

    @settings(max_examples=200, deadline=None)
    @given(
        sets=st.lists(
            st.sets(st.sampled_from(_TF_ONE_VOCAB), min_size=1),
            min_size=1,
            max_size=30,
        ),
        query=st.dictionaries(
            st.sampled_from(_TF_ONE_VOCAB), st.integers(1, 9), min_size=1
        ),
        tau=st.sampled_from([0.3, 0.6, 0.8, 0.95]),
    )
    def test_tf_one_corpus_matches_brute_force(self, sets, query, tau):
        coll = SetCollection.from_token_sets([sorted(s) for s in sets])
        selector = WeightedSelector(coll)
        tokens = [t for t, tf in sorted(query.items()) for _ in range(tf)]
        got = selector.search(tokens, tau, measure="tfidf")
        ref = selector.brute_force(tokens, tau, measure="tfidf")
        assert answers(got.results) == answers(ref)
