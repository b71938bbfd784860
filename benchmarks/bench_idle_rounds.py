"""Idle rounds in one step — the bulk pop must keep paying for itself.

Once ``F < tau`` no set can be admitted, and iNRA and Hybrid pop the
rounds in which no list sees or passes a candidate, closes or enters a
page with one call to ``RoundRobin.skip_idle`` (``algorithms/kernel.py``)
instead of one posting and one candidate pass at a time.

On the golden-counter corpus (2,000 records, 60 one-edit queries,
``tests/test_golden_counters.py``) at τ = 0.5, this counts the bytecodes
that each algorithm executes with the step, and again with the step
patched to report no idle rounds.  It asserts two things:

* the two runs have identical answers and ledgers;
* with the step, the algorithm executes at most ``BOUND`` (0.9) times
  the bytecodes of the patched run.

Both counts come from one interpreter, so the ratio does not depend on
the Python version.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro import SetSimilaritySearcher
from repro.algorithms.kernel import RoundRobin
from repro.core.tokenize import QGramTokenizer
from repro.data.errors import apply_modifications
from repro.data.synthetic import generate_word_database

from conftest import count_opcodes

TAU = 0.5
BOUND = 0.9


@pytest.fixture(scope="module")
def golden():
    collection, words = generate_word_database(
        num_records=2000, vocabulary_size=1500, seed=2008
    )
    rng = random.Random(2008)
    tok = QGramTokenizer(q=3)
    searcher = SetSimilaritySearcher(collection)
    queries = [
        tok.tokens(apply_modifications(rng.choice(words), 1, rng))
        for _ in range(60)
    ]
    return searcher, [searcher.prepare(tokens) for tokens in queries]


def _counted(searcher, queries, algorithm):
    outcomes = []

    def run():
        for query in queries:
            result = searcher.search_prepared(query, TAU, algorithm)
            outcomes.append(
                (
                    [(r.set_id, float(r.score).hex()) for r in result.results],
                    result.stats.snapshot(),
                    result.peak_candidates,
                )
            )

    run()  # warm: the first pass builds what later passes reuse
    outcomes.clear()
    return count_opcodes(run), outcomes


@pytest.mark.parametrize("algorithm", ["inra", "hybrid"])
def test_idle_round_step_cuts_bytecodes(golden, algorithm):
    searcher, queries = golden
    with_step, answers = _counted(searcher, queries, algorithm)
    with mock.patch.object(RoundRobin, "skip_idle", lambda *args: 0):
        without, patched_answers = _counted(searcher, queries, algorithm)
    assert answers == patched_answers
    ratio = with_step / without
    print(f"\n{algorithm}: {with_step} / {without} bytecodes = {ratio:.3f}")
    assert ratio <= BOUND, (
        f"{algorithm} executes {ratio:.3f}x the bytecodes of a run without "
        f"the idle-round step (bound {BOUND})"
    )
