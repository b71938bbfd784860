"""Grand differential fuzz: every engine agrees on randomized universes.

One seeded sweep over corpus shapes (set-size skew, vocabulary size,
duplicates, singletons), tokenizations, thresholds, algorithms and storage
knobs.  Every engine — the seven list algorithms, both relational engines
and the prefix filter — must return exactly the brute-force answer set for
every drawn configuration.

This is deliberately broad rather than deep: the per-module tests isolate
failures; this one exists to catch interactions between knobs.
"""

import random

import pytest

from repro import SetCollection, SetSimilaritySearcher, algorithm_names
from repro.algorithms.prefixfilter import PrefixFilterSearcher
from repro.relational.sqlbaseline import SqlBaseline
from repro.relational.sqlite_backend import SqliteBaseline

NUM_UNIVERSES = 6


def make_universe(rng):
    vocab_size = rng.choice([5, 15, 40])
    vocab = [f"t{i}" for i in range(vocab_size)]
    num_sets = rng.choice([10, 80, 200])
    sets = []
    for _ in range(num_sets):
        size = rng.randint(1, min(8, vocab_size))
        sets.append(rng.sample(vocab, size))
    # Inject exact duplicates and singletons.
    if sets:
        sets.append(list(sets[0]))
        sets.append([vocab[0]])
    return vocab, SetCollection.from_token_sets(sets)


def reference(searcher, q, tau):
    return {
        (r.set_id, round(r.score, 9)) for r in searcher.brute_force(q, tau)
    }


@pytest.mark.parametrize("universe_seed", range(NUM_UNIVERSES))
def test_every_engine_agrees(universe_seed):
    rng = random.Random(1000 + universe_seed)
    vocab, coll = make_universe(rng)
    searcher = SetSimilaritySearcher(
        coll,
        page_capacity=rng.choice([2, 32, 512]),
        skiplist_stride=rng.choice([1, 8, 64]),
        hash_bucket_capacity=rng.choice([1, 8, 64]),
    )
    sql = SqlBaseline(coll, btree_order=rng.choice([4, 64]))
    sqlite = SqliteBaseline(coll)
    prefix = PrefixFilterSearcher(coll, tau_min=0.5)

    for _ in range(6):
        q = rng.sample(vocab, rng.randint(1, min(6, len(vocab))))
        tau = rng.choice([0.5, 0.75, 0.9, 1.0])
        ref = reference(searcher, q, tau)
        pq = searcher.prepare(q)

        for algo in algorithm_names():
            got = {
                (r.set_id, round(r.score, 9))
                for r in searcher.search(q, tau, algorithm=algo).results
            }
            assert got == ref, (universe_seed, algo, tau, q)

        for engine in (sql, sqlite):
            got = {
                (r.set_id, round(r.score, 9))
                for r in engine.search(pq, tau).results
            }
            assert got == ref, (universe_seed, engine.name, tau, q)

        got = {
            (r.set_id, round(r.score, 9))
            for r in prefix.search(q, tau).results
        }
        assert got == ref, (universe_seed, "prefix-filter", tau, q)

    sqlite.close()


@pytest.mark.parametrize("universe_seed", range(3))
def test_topk_and_join_agree(universe_seed):
    rng = random.Random(2000 + universe_seed)
    vocab, coll = make_universe(rng)
    searcher = SetSimilaritySearcher(coll)

    for _ in range(4):
        q = rng.sample(vocab, rng.randint(1, min(5, len(vocab))))
        k = rng.choice([1, 3, 10])
        full = [r for r in searcher.brute_force(q, 1e-9) if r.score > 0]
        expect = [(r.set_id, round(r.score, 9)) for r in full[:k]]
        got = [
            (r.set_id, round(r.score, 9))
            for r in searcher.top_k(q, k).results
        ]
        assert got == expect, (universe_seed, k, q)

    from repro.core.join import brute_force_self_join, similarity_self_join

    tau = rng.choice([0.6, 0.9])
    got_pairs = {
        (p.a, p.b, round(p.score, 9))
        for p in similarity_self_join(searcher, tau).pairs
    }
    ref_pairs = {
        (p.a, p.b, round(p.score, 9))
        for p in brute_force_self_join(coll, tau)
    }
    assert got_pairs == ref_pairs, universe_seed
