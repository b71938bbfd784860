"""Stress pass: one larger corpus, every subsystem, one sweep.

Bigger than the unit fixtures (3 000 sets, q-gram tokens from generated
words) and deliberately mixed: selections across algorithms and thresholds
against brute force, top-k, a join slice, persistence round-trip and
validation — all on the same index.  Kept to a single module so the cost
is paid once.
"""

import random

import pytest

from repro import SetSimilaritySearcher, algorithm_names
from repro.core.tokenize import QGramTokenizer
from repro.core.validation import validate_index
from repro.data.synthetic import generate_word_database


@pytest.fixture(scope="module")
def big():
    collection, words = generate_word_database(
        num_records=8000, vocabulary_size=3500, seed=404
    )
    searcher = SetSimilaritySearcher(collection)
    return searcher, words, QGramTokenizer(q=3)


def test_index_valid_at_scale(big):
    searcher, _w, _t = big
    assert len(searcher.collection) >= 2500
    assert validate_index(searcher.index).valid


def test_all_algorithms_agree_at_scale(big):
    searcher, words, tok = big
    rng = random.Random(5)
    for _ in range(6):
        word = words[rng.randrange(len(words))]
        q = tok.tokens(word)
        tau = rng.choice([0.7, 0.9])
        ref = {
            (r.set_id, round(r.score, 9))
            for r in searcher.brute_force(q, tau)
        }
        for algo in algorithm_names():
            got = {
                (r.set_id, round(r.score, 9))
                for r in searcher.search(q, tau, algorithm=algo).results
            }
            assert got == ref, (algo, tau, word)


def test_topk_consistent_at_scale(big):
    searcher, words, tok = big
    rng = random.Random(6)
    for _ in range(4):
        q = tok.tokens(words[rng.randrange(len(words))])
        full = [r for r in searcher.brute_force(q, 1e-9) if r.score > 0]
        got = [
            (r.set_id, round(r.score, 9))
            for r in searcher.top_k(q, 10).results
        ]
        assert got == [(r.set_id, round(r.score, 9)) for r in full[:10]]


def test_persistence_round_trip_at_scale(big, tmp_path):
    from repro import load_searcher, save_searcher

    searcher, words, tok = big
    save_searcher(searcher, tmp_path / "big")
    loaded = load_searcher(tmp_path / "big")
    rng = random.Random(8)
    for _ in range(4):
        q = tok.tokens(words[rng.randrange(len(words))])
        assert set(loaded.search(q, 0.8).ids()) == set(
            searcher.search(q, 0.8).ids()
        )


def test_pruning_strong_at_scale(big):
    searcher, words, tok = big
    rng = random.Random(9)
    powers = []
    for _ in range(10):
        q = tok.tokens(words[rng.randrange(len(words))])
        powers.append(
            searcher.search(q, 0.9, algorithm="sf").pruning_power
        )
    assert sum(powers) / len(powers) > 0.6
