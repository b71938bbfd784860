"""Stateful (model-based) hypothesis tests for the mutable structures."""

import shutil
import tempfile
from collections import Counter, OrderedDict
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro import (
    DurableUpdatableSearcher,
    SetCollection,
    SetSimilaritySearcher,
    load_searcher,
)
from repro.faults import TornWriteError, use_fault_plan
from repro.storage.buffer import LRUBufferPool
from repro.storage.btree import BPlusTree
from repro.storage.exthash import ExtendibleHash


class ExtendibleHashMachine(RuleBasedStateMachine):
    """ExtendibleHash must behave exactly like a dict of int -> value."""

    def __init__(self):
        super().__init__()
        self.hash = ExtendibleHash(bucket_capacity=2)  # force many splits
        self.model = {}

    @rule(key=st.integers(0, 500), value=st.integers(-10, 10))
    def insert(self, key, value):
        self.hash.insert(key, value)
        self.model[key] = value

    @rule(key=st.integers(0, 500))
    def probe(self, key):
        found, value = self.hash.probe(key)
        assert found == (key in self.model)
        if found:
            assert value == self.model[key]

    @invariant()
    def sizes_agree(self):
        assert len(self.hash) == len(self.model)

    @invariant()
    def load_factor_sane(self):
        if self.model:
            assert 0.0 < self.hash.load_factor() <= 1.0


class LRUPoolMachine(RuleBasedStateMachine):
    """LRUBufferPool must match a reference OrderedDict LRU."""

    CAPACITY = 4

    def __init__(self):
        super().__init__()
        self.pool = LRUBufferPool(self.CAPACITY)
        self.model = OrderedDict()

    @rule(key=st.integers(0, 10))
    def access(self, key):
        expected_hit = key in self.model
        if expected_hit:
            self.model.move_to_end(key)
        else:
            self.model[key] = None
            if len(self.model) > self.CAPACITY:
                self.model.popitem(last=False)
        assert self.pool.access(key) == expected_hit

    @invariant()
    def contents_agree(self):
        assert len(self.pool) == len(self.model)
        for key in self.model:
            assert key in self.pool


class BTreeMachine(RuleBasedStateMachine):
    """Point-inserted B+-tree must match a sorted dict."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=4)  # tiny order forces splits
        self.model = {}

    @rule(key=st.integers(0, 200), value=st.integers())
    def insert(self, key, value):
        # The tree allows duplicate keys; the model keeps the first, and we
        # only insert fresh keys to keep semantics aligned.
        if key not in self.model:
            self.tree.insert(key, value)
            self.model[key] = value

    @rule(key=st.integers(0, 200))
    def seek(self, key):
        assert self.tree.seek(key) == self.model.get(key)

    @rule(a=st.integers(0, 200), b=st.integers(0, 200))
    def range_scan(self, a, b):
        lo, hi = min(a, b), max(a, b)
        got = [k for k, _ in self.tree.range_scan(lo, hi)]
        expected = sorted(k for k in self.model if lo <= k <= hi)
        assert got == expected

    @invariant()
    def items_sorted(self):
        keys = [k for k, _ in self.tree.items()]
        assert keys == sorted(self.model)


TestExtendibleHashStateful = ExtendibleHashMachine.TestCase
TestLRUPoolStateful = LRUPoolMachine.TestCase
TestBTreeStateful = BTreeMachine.TestCase

for case in (
    TestExtendibleHashStateful,
    TestLRUPoolStateful,
    TestBTreeStateful,
):
    case.settings = settings(
        max_examples=25, stateful_step_count=40, deadline=None
    )


# ----------------------------------------------------------------------
# durability: one directory of generations and inserts across restarts
# ----------------------------------------------------------------------
_VOCAB = ["a", "b", "c", "d", "e"]
_SETS = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=4)
_QUERIES = [["a"], ["a", "b"], ["b", "c", "d"], ["e", "a", "c"]]

#: Every fault point one save passes, as ``(site, hits to let through)``:
#: two files, six fsyncs (the two files, the temp directory, the index
#: directory twice and the ``CURRENT`` temp file) and the two promotion
#: steps (rename, then the ``CURRENT`` write).
_SAVE_FAULTS = (
    [
        ("persist.write_collection", 0),
        ("persist.write_manifest", 0),
    ]
    + [("persist.fsync", k) for k in range(6)]
    + [("persist.promote", 0), ("persist.promote", 1)]
)

#: The one save fault that strikes after ``CURRENT`` names the new
#: generation: the index directory's last fsync.
_AFTER_FLIP = ("persist.fsync", 5)


def _state(counts):
    """Sets as the model holds them: each set's token counts, in id order."""
    return tuple(frozenset(c.items()) for c in counts)


def _stored(collection):
    return _state(rec.counts for rec in collection)


def _ranked(results):
    """Results as ``(id, score to 9 places)``, best first.  Ties at that
    precision go by id: the oracle sums in another order, so its score
    can be an ulp off an algorithm's and order equal scores otherwise."""
    return sorted(
        ((r.set_id, round(r.score, 9)) for r in results),
        key=lambda pair: (-pair[1], pair[0]),
    )


def _answers(searcher, algorithm):
    return [
        _ranked(searcher.search(q, 0.4, algorithm).results)
        for q in _QUERIES
    ]


class DurabilityMachine(RuleBasedStateMachine):
    """Durable inserts, compactions, torn saves, torn and corrupt appends
    and restarts on one directory against a list-of-sets model.

    ``live`` is the set list the running searcher holds; ``logged`` is
    what a restart must recover: the current generation's sets
    (``saved`` of them) and its tail up to the first frame written
    corrupt.  Inserts after such a frame are lost (``poisoned``) until a
    restart, which drops the frame and what follows it, or a save.  The
    dropped lines stay on disk (``dropping``) until the next append or
    save.  Each restart checks the recovered sets against the model and
    every answer against the brute-force oracle.
    """

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="repro-durability-"))
        self.searcher = DurableUpdatableSearcher(self.root)
        self.live = []
        self.logged = []
        self.saved = 0
        self.poisoned = False
        self.dropping = False

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    # -- writes ----------------------------------------------------------
    @rule(tokens=_SETS)
    def add(self, tokens):
        self.searcher.add(tokens)
        self.live.append(Counter(tokens))
        if not self.poisoned:  # the append cut off what a restart dropped
            self.logged.append(Counter(tokens))
            self.dropping = False

    @rule(tokens=_SETS)
    def add_torn(self, tokens):
        with use_fault_plan("persist.append_insert:torn:count=1"):
            with pytest.raises(TornWriteError):
                self.searcher.add(tokens)

    @rule(tokens=_SETS)
    def add_written_corrupt(self, tokens):
        # The frame reaches disk with a bad CRC, undetected until replay.
        with use_fault_plan("persist.append_insert:flip:count=1"):
            self.searcher.add(tokens)
        self.live.append(Counter(tokens))
        self.poisoned = self.dropping = True

    def _saved(self):
        self.logged = list(self.live)
        self.saved = len(self.live)
        self.poisoned = self.dropping = False

    @rule()
    def compact(self):
        assert self.searcher.compact()["num_sets"] == len(self.live)
        self._saved()
        # A save keeps the new generation and the one before it.
        generations = [
            p for p in self.root.iterdir() if p.name.startswith("gen-")
        ]
        assert len(generations) <= 2

    @rule(fault=st.sampled_from(_SAVE_FAULTS), tokens=st.lists(_SETS))
    def save_torn(self, fault, tokens):
        site, after = fault
        with use_fault_plan(f"{site}:torn:count=1:after={after}"):
            with pytest.raises(TornWriteError):
                self.searcher.compact()
        if fault == _AFTER_FLIP:
            self._saved()
        for insert in tokens:  # inserts land where a restart reads them
            self.add(insert)

    # -- restarts --------------------------------------------------------
    @rule()
    def restart(self):
        searcher = DurableUpdatableSearcher(self.root)
        report = searcher.recovery_report
        assert report.replayed == len(self.logged) - self.saved
        assert (report.dropped > 0) == self.dropping
        self._check(searcher, _state(self.logged))
        self._check(load_searcher(self.root), _state(self.logged))
        self.searcher = searcher
        self.live = list(self.logged)
        self.poisoned = False

    def _tail(self):
        name = (self.root / "CURRENT").read_text().strip()
        return self.root / name / "inserts.jsonl"

    @precondition(lambda self: self._tail().exists())
    @rule()
    def restart_with_torn_replay(self):
        # A failed read proves no damage: the open raises, renames
        # nothing, and the next restart recovers everything.
        with use_fault_plan("persist.read_inserts:torn:count=1"):
            with pytest.raises(TornWriteError):
                DurableUpdatableSearcher(self.root)
        self.restart()

    # -- model -----------------------------------------------------------
    @staticmethod
    def _check(searcher, expected):
        assert _stored(searcher.collection) == expected
        oracle = SetSimilaritySearcher(
            SetCollection.from_token_sets(
                [list(Counter(dict(counts)).elements()) for counts in expected]
            )
        )
        truth = [_ranked(oracle.brute_force(q, 0.4)) for q in _QUERIES]
        for algorithm in ("sf", "ta", "sort-by-id"):
            assert _answers(searcher, algorithm) == truth


TestDurabilityStateful = DurabilityMachine.TestCase
TestDurabilityStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
