"""Golden I/O counters: every algorithm's exact ledger, pinned.

The paper's counters (elements read, sequential/random pages, skip jumps,
hash probes, candidate scans) are deterministic, so a refactor of the
bounds or the cursor must reproduce them bit for bit.  This test sums
``IOStats.snapshot()`` over a seeded q-gram corpus and query set for every
registered algorithm (plus iNRA's non-default ``lazy_scans`` setting) and
for top-k, and compares against recorded values.  A change here means
pruning decisions changed: find out why before updating a number.
"""

import random

import pytest

from repro import SetSimilaritySearcher
from repro.algorithms import algorithm_names
from repro.core.tokenize import QGramTokenizer
from repro.data.errors import apply_modifications
from repro.data.synthetic import generate_word_database
from repro.storage.pages import IOStats

THRESHOLDS = (0.5, 0.8)


def counters(*values):
    """A snapshot dict, values in ``IOStats.COUNTER_FIELDS`` order."""
    return dict(zip(IOStats.COUNTER_FIELDS, values))


GOLDEN = {
    "hybrid": counters(1010, 1, 13056, 0, 1941, 5190),
    "inra": counters(1010, 1, 15951, 0, 1941, 2868),
    "inra:eager": counters(1010, 1, 15951, 0, 1941, 5196),
    "ita": counters(1008, 4291, 6017, 4290, 1941, 0),
    "nra": counters(1010, 0, 21468, 0, 0, 17275),
    "sf": counters(1010, 1, 12427, 0, 1941, 0),
    "sort-by-id": counters(1022, 0, 40900, 0, 0, 0),
    "ta": counters(1008, 29636, 4230, 29636, 0, 0),
}

GOLDEN_TOPK = {
    1: counters(507, 0, 14068, 0, 724, 7477),
    5: counters(509, 0, 17705, 0, 0, 38909),
    20: counters(511, 0, 19804, 0, 0, 113835),
}


@pytest.fixture(scope="module")
def corpus():
    collection, words = generate_word_database(
        num_records=2000, vocabulary_size=1500, seed=2008
    )
    rng = random.Random(2008)
    tok = QGramTokenizer(q=3)
    queries = [
        tok.tokens(apply_modifications(rng.choice(words), 1, rng))
        for _ in range(60)
    ]
    return SetSimilaritySearcher(collection), queries


def summed(ledgers):
    total = IOStats()
    for stats in ledgers:
        total.add(stats)
    return total.snapshot()


def variant_options(variant):
    name, _, option = variant.partition(":")
    return name, ({"lazy_scans": option == "lazy"} if option else {})


def test_every_algorithm_is_pinned():
    assert {v.partition(":")[0] for v in GOLDEN} == set(algorithm_names())


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_selection_counters(corpus, variant):
    searcher, queries = corpus
    name, options = variant_options(variant)
    got = summed(
        searcher.search(q, tau, algorithm=name, **options).stats
        for tau in THRESHOLDS
        for q in queries
    )
    assert got == GOLDEN[variant]


@pytest.mark.parametrize("k", sorted(GOLDEN_TOPK))
def test_topk_counters(corpus, k):
    searcher, queries = corpus
    got = summed(searcher.top_k(q, k).stats for q in queries)
    assert got == GOLDEN_TOPK[k]
