"""Every algorithm must return exactly the brute-force answer set.

This file is the load-bearing correctness check of the library: all seven
inverted-list algorithms (and their length-bounding / skip-list ablation
variants) are compared against exhaustive scoring on randomized corpora,
hypothesis-generated corpora, and hand-picked edge cases.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SetCollection, SetSimilaritySearcher, algorithm_names
from repro.core.errors import InvalidThresholdError, UnknownAlgorithmError

ALGOS = algorithm_names()
VARIANT_ALGOS = ["inra", "ita", "sf", "hybrid"]


def answers(result):
    return {(r.set_id, round(r.score, 9)) for r in result.results}


def reference(searcher, q, tau):
    return {(r.set_id, round(r.score, 9)) for r in searcher.brute_force(q, tau)}


def _bits(results):
    return [(r.set_id, float.hex(r.score)) for r in results]


class TestBitExactOracle:
    """The oracle sums scores as SF does (one ``idf²/(len(s)·len(q))``
    per matched token, in processing order), so SF and sort-by-id, which
    sum the same terms in the same order, agree with it to the last bit
    and in the same result order."""

    @settings(max_examples=150, deadline=None)
    @given(
        sets=st.lists(
            st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=6),
            min_size=1,
            max_size=40,
        ),
        query=st.lists(st.sampled_from("abcdefghijk"), min_size=1, max_size=7),
        tau=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9, 1.0]),
    )
    def test_scores_match_bit_for_bit(self, sets, query, tau):
        searcher = SetSimilaritySearcher(SetCollection.from_token_sets(sets))
        oracle = _bits(searcher.brute_force(query, tau))
        for algo in ("sf", "sort-by-id"):
            got = searcher.search(query, tau, algorithm=algo)
            assert _bits(got.results) == oracle, algo


class TestAgainstBruteForce:
    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.7, 0.9, 1.0])
    def test_random_queries(self, searcher, small_vocab, algo, tau):
        rng = random.Random(hash((algo, tau)) & 0xFFFF)
        for _ in range(12):
            q = rng.sample(small_vocab, rng.randint(1, 8))
            got = answers(searcher.search(q, tau, algorithm=algo))
            assert got == reference(searcher, q, tau)

    @pytest.mark.parametrize("algo", VARIANT_ALGOS)
    @pytest.mark.parametrize("lb,sl", [(True, False), (False, True), (False, False)])
    def test_ablation_variants(self, searcher, small_vocab, algo, lb, sl):
        rng = random.Random(hash((algo, lb, sl)) & 0xFFFF)
        for tau in (0.4, 0.8):
            for _ in range(6):
                q = rng.sample(small_vocab, rng.randint(1, 6))
                got = answers(
                    searcher.search(
                        q, tau, algorithm=algo,
                        use_length_bounds=lb, use_skip_lists=sl,
                    )
                )
                assert got == reference(searcher, q, tau)

    @pytest.mark.parametrize("algo", ["nra", "inra"])
    def test_eager_scan_variants(self, searcher, small_vocab, algo):
        rng = random.Random(13)
        for _ in range(8):
            q = rng.sample(small_vocab, rng.randint(1, 6))
            got = answers(
                searcher.search(q, 0.6, algorithm=algo, lazy_scans=False)
            )
            assert got == reference(searcher, q, 0.6)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_on_qgram_word_database(self, word_searcher, word_database, algo):
        collection, words = word_database
        rng = random.Random(hash(algo) & 0xFFFF)
        from repro.core.tokenize import QGramTokenizer

        tok = QGramTokenizer(q=3)
        for tau in (0.6, 0.85):
            for _ in range(4):
                word = words[rng.randrange(len(words))]
                q = tok.tokens(word)
                got = answers(word_searcher.search(q, tau, algorithm=algo))
                assert got == reference(word_searcher, q, tau)


class TestHypothesisCorrectness:
    @given(
        data=st.data(),
        tau=st.sampled_from([0.25, 0.5, 0.75, 0.95, 1.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_algorithms_property(self, data, tau):
        vocab = [f"v{i}" for i in range(12)]
        sets = data.draw(
            st.lists(
                st.sets(st.sampled_from(vocab), min_size=1, max_size=6),
                min_size=1,
                max_size=25,
            )
        )
        query = data.draw(
            st.sets(st.sampled_from(vocab), min_size=1, max_size=5)
        )
        coll = SetCollection.from_token_sets([sorted(s) for s in sets])
        searcher = SetSimilaritySearcher(coll)
        ref = reference(searcher, sorted(query), tau)
        for algo in ALGOS:
            got = answers(searcher.search(sorted(query), tau, algorithm=algo))
            assert got == ref, algo


class TestEdgeCases:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_query_with_unseen_tokens_only(self, searcher, algo):
        result = searcher.search(["unseen1", "unseen2"], 0.5, algorithm=algo)
        assert len(result) == 0

    @pytest.mark.parametrize("algo", ALGOS)
    def test_query_mixing_seen_and_unseen(self, searcher, small_vocab, algo):
        q = [small_vocab[0], "unseen-token"]
        got = answers(searcher.search(q, 0.3, algorithm=algo))
        assert got == reference(searcher, q, 0.3)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_tau_one_finds_exact_duplicates(self, algo):
        coll = SetCollection.from_token_sets(
            [["a", "b"], ["a", "b"], ["a"], ["a", "b", "c"]]
        )
        searcher = SetSimilaritySearcher(coll)
        result = searcher.search(["a", "b"], 1.0, algorithm=algo)
        assert set(result.ids()) == {0, 1}
        assert all(r.score == pytest.approx(1.0) for r in result.results)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_single_token_query(self, algo):
        coll = SetCollection.from_token_sets([["a"], ["a", "b"], ["b"]])
        searcher = SetSimilaritySearcher(coll)
        got = answers(searcher.search(["a"], 0.5, algorithm=algo))
        assert got == reference(searcher, ["a"], 0.5)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_all_sets_identical(self, algo):
        coll = SetCollection.from_token_sets([["x", "y"]] * 5)
        searcher = SetSimilaritySearcher(coll)
        result = searcher.search(["x", "y"], 0.9, algorithm=algo)
        assert set(result.ids()) == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("algo", ALGOS)
    def test_singleton_collection(self, algo):
        coll = SetCollection.from_token_sets([["only"]])
        searcher = SetSimilaritySearcher(coll)
        assert set(
            searcher.search(["only"], 1.0, algorithm=algo).ids()
        ) == {0}

    @pytest.mark.parametrize("algo", ALGOS)
    def test_very_low_threshold_returns_all_overlapping(self, algo):
        coll = SetCollection.from_token_sets(
            [["a", "b"], ["b", "c"], ["c", "d"], ["x"]]
        )
        searcher = SetSimilaritySearcher(coll)
        got = answers(searcher.search(["b", "c"], 0.01, algorithm=algo))
        assert got == reference(searcher, ["b", "c"], 0.01)
        assert 3 not in {sid for sid, _ in got}  # no-overlap never returned

    def test_invalid_threshold_rejected(self, searcher, small_vocab):
        with pytest.raises(InvalidThresholdError):
            searcher.search([small_vocab[0]], 0.0)
        with pytest.raises(InvalidThresholdError):
            searcher.search([small_vocab[0]], 1.5)

    def test_unknown_algorithm_rejected(self, searcher, small_vocab):
        with pytest.raises(UnknownAlgorithmError):
            searcher.search([small_vocab[0]], 0.5, algorithm="quantum")

    def test_results_sorted_best_first(self, searcher, small_vocab):
        rng = random.Random(5)
        q = rng.sample(small_vocab, 6)
        result = searcher.search(q, 0.2, algorithm="sf")
        scores = [r.score for r in result.results]
        assert scores == sorted(scores, reverse=True)

    def test_scores_are_exact(self, searcher, small_vocab):
        from repro.core.similarity import idf_similarity

        rng = random.Random(6)
        q = rng.sample(small_vocab, 5)
        result = searcher.search(q, 0.3, algorithm="hybrid")
        for r in result.results:
            rec = searcher.collection[r.set_id]
            expected = idf_similarity(
                q, rec.tokens, searcher.collection.stats
            )
            assert r.score == pytest.approx(expected)
