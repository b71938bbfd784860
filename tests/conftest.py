"""Shared fixtures: small deterministic corpora and searchers.

The whole suite runs with the runtime invariant contracts armed
(``repro.contracts``): any test that silently produced an unsorted
posting list, a non-monotone frontier, or an out-of-window result now
fails loudly instead.  Must be set before ``repro`` is first imported —
the contracts module snapshots the environment at import time.
"""

from __future__ import annotations

import os
import random
import shutil
from pathlib import Path

import pytest

os.environ.setdefault("REPRO_CHECK_INVARIANTS", "1")

from repro import SetCollection, SetSimilaritySearcher
from repro.core.tokenize import QGramTokenizer
from repro.data.synthetic import generate_word_database


def random_token_sets(
    num_sets: int, vocab_size: int, max_size: int, seed: int
):
    rng = random.Random(seed)
    vocab = [f"t{i}" for i in range(vocab_size)]
    return [
        rng.sample(vocab, rng.randint(1, max_size)) for _ in range(num_sets)
    ], vocab


@pytest.fixture(scope="session")
def small_collection():
    """300 random sets over a 60-token vocabulary (session-cached)."""
    sets, _vocab = random_token_sets(300, 60, 10, seed=42)
    return SetCollection.from_token_sets(sets)


@pytest.fixture(scope="session")
def small_vocab():
    _sets, vocab = random_token_sets(300, 60, 10, seed=42)
    return vocab


@pytest.fixture(scope="session")
def searcher(small_collection):
    return SetSimilaritySearcher(small_collection)


@pytest.fixture(scope="session")
def word_database():
    """A synthetic word-level q-gram database (collection, words)."""
    return generate_word_database(
        num_records=600, vocabulary_size=500, seed=11
    )


@pytest.fixture(scope="session")
def word_searcher(word_database):
    collection, _words = word_database
    return SetSimilaritySearcher(collection)


PERSIST_FIXTURES = Path(__file__).parent / "fixtures" / "persist"


@pytest.fixture()
def legacy_index(tmp_path):
    """Copy a committed index directory of a given format into
    ``tmp_path`` and return the copy: ``"v4"``, ``"v3"`` and ``"v2"``
    are generational directories of formats 4, 3 and 2, ``"v1"`` a flat
    format-1 one (v1 and v2 hold ``postings.bin``; see
    ``tests/fixtures/persist/README.md``)."""

    def copy(name):
        target = tmp_path / f"legacy-{name}"
        shutil.copytree(PERSIST_FIXTURES / name, target)
        return target

    return copy


@pytest.fixture()
def qgram3():
    return QGramTokenizer(q=3)
