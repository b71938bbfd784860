"""Idle rounds popped in bulk (``RoundRobin.skip_idle``).

Once ``F < tau`` no set can be admitted, so iNRA and Hybrid pop the
rounds in which no list sees or passes a candidate, closes or enters a
page in one step.  That step must be invisible: every answer, counter and
peak, and where a deadline or an injected page fault stops the query,
equal a run in which the step always reports zero idle rounds.
"""

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import SetCollection, SetSimilaritySearcher
from repro.algorithms.base import QueryLists
from repro.algorithms.hybrid import Hybrid
from repro.algorithms.inra import INRA
from repro.algorithms.kernel import RoundRobin
from repro.core.errors import DeadlineExceeded
from repro.faults import TransientIOError, use_fault_plan
from repro.storage.pages import IOStats

VOCABULARY = [f"t{i}" for i in range(10)]
#: Zipf-like, so some lists are long and some short.
WEIGHTS = [1.0 / (rank + 1) for rank in range(len(VOCABULARY))]

VARIANTS = {
    "inra": lambda index, **kw: INRA(index, **kw),
    "inra:eager": lambda index, **kw: INRA(index, lazy_scans=False, **kw),
    "hybrid": lambda index, **kw: Hybrid(index, **kw),
}


def no_idle_rounds():
    return mock.patch.object(RoundRobin, "skip_idle", lambda *args: 0)


def make_sets(seed, count):
    rng = random.Random(seed)
    return [
        set(rng.choices(VOCABULARY, WEIGHTS, k=rng.randint(1, 6)))
        for _ in range(count)
    ]


def outcome(result):
    stats = result.stats
    return (
        [(r.set_id, float(r.score).hex()) for r in result.results],
        {field: getattr(stats, field) for field in stats.COUNTER_FIELDS},
        result.peak_candidates,
    )


# Rare cases, kept as examples: an idle list reaches the head past its
# limit (``hi`` or Hybrid's depth) while another list still has idle pops.
@example(931, 73, 3, ["t1", "t3", "t0"], 0.652881462779054, 0.0, "inra", None)
@example(
    7719, 84, 4, ["t2", "t0", "t9"], 0.7165664899216264, 0.5, "inra:eager",
    None,
)
@example(
    7211, 64, 4, ["t0", "t7", "t4", "t2", "t1"], 0.7091419217121827, 0.5,
    "hybrid", None,
)
@given(
    seed=st.integers(0, 10_000),
    num_sets=st.integers(5, 120),
    page_capacity=st.integers(1, 4),
    query=st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=6),
    tau=st.floats(0.3, 0.95),
    floor=st.sampled_from([0.0, 0.5, 0.9]),
    variant=st.sampled_from(sorted(VARIANTS)),
    buffer_pool_pages=st.sampled_from([None, 1, 3]),
)
@settings(max_examples=300, deadline=None)
def test_answers_and_counters_equal_a_run_without_the_step(
    seed, num_sets, page_capacity, query, tau, floor, variant,
    buffer_pool_pages,
):
    searcher = SetSimilaritySearcher(
        SetCollection.from_token_sets(make_sets(seed, num_sets)),
        page_capacity=page_capacity,
    )
    algorithm = VARIANTS[variant](
        searcher.index, buffer_pool_pages=buffer_pool_pages
    )
    prepared = searcher.prepare(query)
    # ``floor`` is a fraction of the query's length: 0.9 lifts the lower
    # end of the length window above tau * len(q) when tau < 0.9.
    length_floor = floor * prepared.length
    with_step = outcome(algorithm.search(prepared, tau, length_floor))
    with no_idle_rounds():
        without = outcome(algorithm.search(prepared, tau, length_floor))
    assert with_step == without


def test_the_step_pops_rounds_and_ends_pages():
    """The equality above is not vacuous: on these corpora the step pops
    idle rounds, and some of its pops use up a page."""
    skipped = pages_ended = 0
    skip_idle = RoundRobin.skip_idle

    def counted(rr, *args):
        nonlocal skipped, pages_ended
        rounds = skip_idle(rr, *args)
        if rounds:
            skipped += rounds
            pages_ended += sum(rr._pos[i] >= rr._page[i][2] for i in rr.open)
        return rounds

    with mock.patch.object(RoundRobin, "skip_idle", counted):
        for seed in range(20):
            searcher = SetSimilaritySearcher(
                SetCollection.from_token_sets(make_sets(seed, 60)),
                page_capacity=4,
            )
            for variant in sorted(VARIANTS):
                algorithm = VARIANTS[variant](searcher.index)
                algorithm.search(searcher.prepare(VOCABULARY[:5]), 0.8)
    assert skipped > 0 and pages_ended > 0


# -- a query stopped in phase 2 ------------------------------------------


class _PageEntries(IOStats):
    """A ledger that counts page entries (its deadline is checked at each)
    and passes its deadline at entry ``allowed + 1``."""

    __slots__ = ("allowed", "entries")

    def __init__(self, allowed=None):
        super().__init__()
        self.deadline = 0.0
        self.allowed = allowed
        self.entries = 0

    def check_deadline(self):
        self.entries += 1
        if self.allowed is not None and self.entries > self.allowed:
            raise DeadlineExceeded("test deadline")


def _phase_two_query():
    """A query, its searcher and algorithm, and a page entry that lands
    after the first idle round was popped."""
    skip_idle = RoundRobin.skip_idle
    for seed in range(50):
        searcher = SetSimilaritySearcher(
            SetCollection.from_token_sets(make_sets(seed, 60)),
            page_capacity=2,
        )
        query = searcher.prepare(VOCABULARY[:5])
        for variant in sorted(VARIANTS):
            algorithm = VARIANTS[variant](searcher.index)
            stats = _PageEntries()
            first = []

            def noted(rr, *args, stats=stats, first=first):
                rounds = skip_idle(rr, *args)
                if rounds and not first:
                    first.append(stats.entries)
                return rounds

            with mock.patch.object(RoundRobin, "skip_idle", noted):
                algorithm._run(QueryLists(searcher.index, query, stats), 0.8)
            if first and stats.entries > first[0] + 1:
                return searcher, query, algorithm, first[0] + 1
    raise AssertionError("no query reads a page after its first idle round")


@pytest.fixture(scope="module")
def phase_two():
    return _phase_two_query()


def _stopped(searcher, query, algorithm, stats, error):
    lists = QueryLists(searcher.index, query, stats)
    with pytest.raises(error):
        algorithm._run(lists, 0.8)
    return (
        {field: getattr(stats, field) for field in stats.COUNTER_FIELDS},
        [cursor.position for cursor in lists.cursors],
    )


def test_a_deadline_in_phase_two_stops_at_the_same_page(phase_two):
    searcher, query, algorithm, entry = phase_two
    stats = _PageEntries(allowed=entry)
    with_step = _stopped(searcher, query, algorithm, stats, DeadlineExceeded)
    assert stats.entries == entry + 1
    stats = _PageEntries(allowed=entry)
    with no_idle_rounds():
        without = _stopped(
            searcher, query, algorithm, stats, DeadlineExceeded
        )
    assert stats.entries == entry + 1
    assert with_step == without


def test_a_page_fault_in_phase_two_stops_at_the_same_page(phase_two):
    searcher, query, algorithm, entry = phase_two
    spec = f"storage.read_page:transient:after={entry}:count=1"

    def run(step):
        with use_fault_plan(spec) as plan, step:
            ledger = _stopped(
                searcher, query, algorithm, IOStats(), TransientIOError
            )
        return ledger, list(plan.journal), plan.rules[0].hits

    with_step = run(contextlib.nullcontext())
    assert with_step[2] == entry + 1
    assert with_step == run(no_idle_rounds())
