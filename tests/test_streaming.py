"""Tests for streaming selections and early termination."""

import random

import pytest

from repro import SetCollection, SetSimilaritySearcher
from repro.algorithms.streaming import (
    STREAMING_ALGORITHMS,
    first_match,
    stream_search,
)
from repro.core.errors import ConfigurationError
from repro.core.tokenize import QGramTokenizer
from repro.data.errors import apply_modifications
from repro.storage.pages import IOStats


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(71)
    vocab = [f"t{i}" for i in range(30)]
    sets = [rng.sample(vocab, rng.randint(1, 7)) for _ in range(250)]
    coll = SetCollection.from_token_sets(sets)
    return SetSimilaritySearcher(coll), vocab


class TestStreamingCorrectness:
    @pytest.mark.parametrize("algorithm", STREAMING_ALGORITHMS)
    @pytest.mark.parametrize("tau", [0.4, 0.7, 0.95])
    def test_complete_stream_equals_batch(self, setup, algorithm, tau):
        searcher, vocab = setup
        rng = random.Random(hash((algorithm, tau)) & 0xFFFF)
        for _ in range(10):
            q = rng.sample(vocab, rng.randint(1, 5))
            query = searcher.prepare(q)
            streamed = {
                (r.set_id, round(r.score, 9))
                for r in stream_search(
                    searcher.index, query, tau, algorithm
                )
            }
            ref = {
                (r.set_id, round(r.score, 9))
                for r in searcher.brute_force(q, tau)
            }
            assert streamed == ref, (algorithm, tau, q)

    def test_sort_by_id_emits_in_id_order(self, setup):
        searcher, vocab = setup
        query = searcher.prepare(vocab[:4])
        ids = [
            r.set_id
            for r in stream_search(searcher.index, query, 0.3, "sort-by-id")
        ]
        assert ids == sorted(ids)

    def test_exact_scores(self, setup):
        from repro.core.similarity import idf_similarity

        searcher, vocab = setup
        q = vocab[:4]
        query = searcher.prepare(q)
        for r in stream_search(searcher.index, query, 0.3, "ita"):
            expected = idf_similarity(
                q, searcher.collection[r.set_id].tokens,
                searcher.collection.stats,
            )
            assert r.score == pytest.approx(expected)

    def test_unknown_algorithm(self, setup):
        searcher, vocab = setup
        query = searcher.prepare(vocab[:2])
        with pytest.raises(ConfigurationError):
            stream_search(searcher.index, query, 0.5, "sf")

    def test_no_match_stream_is_empty(self, setup):
        searcher, _v = setup
        query = searcher.prepare(["zzz-not-in-corpus"])
        assert list(stream_search(searcher.index, query, 0.5)) == []


class TestStreamingMatchesBatch:
    """A fully consumed stream is the registered algorithm's batch run:
    same answers with bit-identical scores, same I/O ledger."""

    @pytest.mark.parametrize("algorithm", STREAMING_ALGORITHMS)
    def test_answers_and_counters_identical(
        self, word_searcher, word_database, algorithm
    ):
        _collection, words = word_database
        rng = random.Random(240)
        tok = QGramTokenizer(q=3)
        for tau in (0.5, 0.7, 0.9):
            for _ in range(20):
                word = apply_modifications(rng.choice(words), 1, rng)
                query = word_searcher.prepare(tok.tokens(word))
                stats = IOStats()
                streamed = sorted(
                    (r.set_id, r.score)
                    for r in stream_search(
                        word_searcher.index, query, tau, algorithm,
                        stats=stats,
                    )
                )
                batch = word_searcher.search_prepared(query, tau, algorithm)
                assert streamed == sorted(
                    (r.set_id, r.score) for r in batch.results
                ), (algorithm, tau, word)
                assert stats.snapshot() == batch.stats.snapshot()


class TestEarlyTermination:
    def test_abandoning_saves_io(self, setup):
        searcher, vocab = setup
        q = vocab[:5]
        query = searcher.prepare(q)
        full_stats = IOStats()
        list(
            stream_search(
                searcher.index, query, 0.2, "sort-by-id", stats=full_stats
            )
        )
        early_stats = IOStats()
        gen = stream_search(
            searcher.index, query, 0.2, "sort-by-id", stats=early_stats
        )
        next(gen)  # take one answer, drop the generator
        gen.close()
        assert early_stats.elements_read < full_stats.elements_read

    def test_first_match(self, setup):
        searcher, _v = setup
        rec = searcher.collection[3]
        query = searcher.prepare(sorted(rec.tokens))
        hit = first_match(searcher.index, query, 0.999)
        assert hit is not None
        assert hit.score == pytest.approx(1.0)

    def test_first_match_none(self, setup):
        searcher, _v = setup
        query = searcher.prepare(["zzz-none"])
        assert first_match(searcher.index, query, 0.9) is None
