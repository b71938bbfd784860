"""Benchmark inputs: corpora, query streams and insert streams.

:func:`generate_records` reproduces ``repro.data.synthetic.generate_records``
record for record (same RNG stream) but computes the Zipf cumulative
weights once instead of once per record, which turns the 32k-record
corpus from an O(records x vocabulary) job into a linear one.  The test
``perfbench/tests/test_corpus.py`` pins the equivalence.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.core.search import SetSimilaritySearcher
from repro.core.tokenize import QGramTokenizer
from repro.data.errors import apply_modifications
from repro.data.synthetic import (
    WordGenerator,
    build_word_collection,
    distinct_words,
    zipf_weights,
)
from repro.data.workloads import bucket_words
from repro.storage.persist import load_searcher, save_searcher

#: Corpora are fixed per workload; ``--seed`` drives queries and inserts.
CORPUS_SEED = 2008
TOKENIZER = QGramTokenizer(q=3)


def generate_records(
    num_records: int,
    vocabulary_size: int = 2000,
    words_per_record: Tuple[int, int] = (2, 4),
    zipf_exponent: float = 1.0,
    seed: int = CORPUS_SEED,
) -> List[str]:
    """Same records as ``repro.data.synthetic.generate_records``."""
    rng = random.Random(seed)
    vocab = WordGenerator(seed).vocabulary(vocabulary_size)
    cum_weights = list(
        itertools.accumulate(zipf_weights(vocabulary_size, zipf_exponent))
    )
    lo, hi = words_per_record
    return [
        " ".join(
            rng.choices(vocab, cum_weights=cum_weights, k=rng.randint(lo, hi))
        )
        for _ in range(num_records)
    ]


def directory_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, files in os.walk(path)
        for name in files
    )


class Setup:
    """One timed set-up: generate, index, save, cold-load.

    ``searcher`` is the *loaded* searcher, the one the workload serves.
    ``make_serving(searcher, words)``, when given, builds what the
    workload serves from it; it is timed as the last set-up step, and
    each pass of the workload builds its own.
    """

    def __init__(
        self,
        records: int,
        vocabulary: int,
        directory: Path,
        make_serving: Optional[Callable] = None,
    ):
        started = time.perf_counter()
        words = distinct_words(
            generate_records(records, vocabulary_size=vocabulary)
        )
        self.generate_s = time.perf_counter() - started

        mark = time.perf_counter()
        built = SetSimilaritySearcher(build_word_collection(words))
        self.build_s = time.perf_counter() - mark

        mark = time.perf_counter()
        manifest = save_searcher(built, directory)
        self.save_s = time.perf_counter() - mark
        del built

        mark = time.perf_counter()
        self.searcher = load_searcher(directory)
        self.load_s = time.perf_counter() - mark

        if make_serving:
            make_serving(self.searcher, words)
        self.setup_s = time.perf_counter() - started
        self.words = words
        self.sets = manifest["num_sets"]
        self.postings = manifest["num_postings"]
        self.disk_bytes = directory_bytes(directory)


def query_stream(
    collection, rng: random.Random
) -> Iterator[Tuple[str, List[str]]]:
    """Endless distinct ``(text, tokens)`` queries: a word from the 6-10
    or 11-15 gram bucket with one random edit."""
    by_bucket = bucket_words(collection)
    ids = by_bucket[(6, 10)] + by_bucket[(11, 15)]
    seen = set()
    while True:
        text = apply_modifications(collection.payload(rng.choice(ids)), 1, rng)
        tokens = TOKENIZER.tokens(text)
        key = frozenset(tokens)
        if tokens and key not in seen:
            seen.add(key)
            yield text, tokens


def take(stream: Iterator, n: int) -> list:
    return list(itertools.islice(stream, n))


def fresh_words(exclude: Iterable[str], seed: int) -> Iterator[str]:
    """Endless distinct words not in ``exclude``: the insert stream."""
    generator = WordGenerator(seed)
    seen = set(exclude)
    while True:
        word = generator.word()
        if word not in seen:
            seen.add(word)
            yield word
