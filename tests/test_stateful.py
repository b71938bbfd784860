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
    SetCollection,
    SetSimilaritySearcher,
    load_searcher,
    save_searcher,
)
from repro.core.errors import StorageError
from repro.faults import TornWriteError, use_fault_plan
from repro.storage.buffer import LRUBufferPool
from repro.storage.btree import BPlusTree
from repro.storage.exthash import ExtendibleHash
from repro.storage.oplog import DurableUpdatableSearcher


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
# durability: operations log and generation snapshots across restarts
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


def _state(counts):
    """Sets as the model holds them: each set's token counts, in id order."""
    return tuple(frozenset(c.items()) for c in counts)


def _stored(collection):
    return _state(rec.counts for rec in collection)


def _answers(searcher, algorithm):
    return [
        [(r.set_id, round(r.score, 9))
         for r in searcher.search(q, 0.4, algorithm).results]
        for q in _QUERIES
    ]


class DurabilityMachine(RuleBasedStateMachine):
    """Inserts, compactions, saves, torn writes and restarts against a
    list-of-sets model.

    ``live`` is the set list the running searcher holds.  The operations
    log replays ``logged``: every insert up to the first record written
    corrupt, after which replay must stop (``poisoned``).  A torn save may
    leave either the old or the new snapshot current, so ``snapshots``
    holds every state a load may return (None: no index at all).  Each
    restart checks the recovered sets against the model and every
    answer against the brute-force oracle.
    """

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="repro-durability-"))
        self.searcher = DurableUpdatableSearcher(self.root / "log")
        self.live = []
        self.logged = []
        self.poisoned = False
        self.snapshots = [None]

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    # -- writes ----------------------------------------------------------
    @rule(tokens=_SETS)
    def add(self, tokens):
        self.searcher.add(tokens)
        self.live.append(Counter(tokens))
        if not self.poisoned:
            self.logged.append(Counter(tokens))

    @rule(tokens=_SETS)
    def add_torn(self, tokens):
        with use_fault_plan("storage.oplog_append:torn:count=1"):
            with pytest.raises(TornWriteError):
                self.searcher.add(tokens)

    @rule(tokens=_SETS)
    def add_written_corrupt(self, tokens):
        # The frame reaches disk with a bad CRC, undetected until replay.
        with use_fault_plan("storage.oplog_append:flip:count=1"):
            self.searcher.add(tokens)
        self.live.append(Counter(tokens))
        self.poisoned = True

    @rule()
    def compact(self):
        assert self.searcher.compact() == len(self.live)
        self.logged = list(self.live)
        self.poisoned = False

    @rule()
    def save(self):
        save_searcher(self.searcher, self.root / "idx")
        self.snapshots = [_state(self.live)]

    @rule(fault=st.sampled_from(_SAVE_FAULTS))
    def save_torn(self, fault):
        site, after = fault
        with use_fault_plan(f"{site}:torn:count=1:after={after}"):
            with pytest.raises(TornWriteError):
                save_searcher(self.searcher, self.root / "idx")
        self.snapshots.append(_state(self.live))

    # -- restarts --------------------------------------------------------
    @rule()
    def restart_from_log(self):
        searcher = DurableUpdatableSearcher(self.root / "log")
        expected = _state(self.logged)
        assert searcher.replayed == len(self.logged)
        assert (searcher.dropped > 0) == self.poisoned
        self._check(searcher, expected)
        self.searcher = searcher
        self.live = list(self.logged)
        self.poisoned = False  # the torn tail was compacted away

    @precondition(lambda self: self.searcher.log.exists())
    @rule()
    def restart_with_torn_replay(self):
        with use_fault_plan("storage.oplog_replay:torn:count=1"):
            with pytest.raises(TornWriteError):
                DurableUpdatableSearcher(self.root / "log")

    @precondition(lambda self: self.snapshots != [None])
    @rule()
    def load_snapshot(self):
        try:
            loaded = load_searcher(self.root / "idx")
        except StorageError:
            assert None in self.snapshots
            self.snapshots = [None]
            return
        state = _stored(loaded.collection)
        assert state in self.snapshots
        self._check(loaded, state)
        self.snapshots = [state]

    # -- model -----------------------------------------------------------
    @staticmethod
    def _check(searcher, expected):
        assert _stored(searcher.collection) == expected
        oracle = SetSimilaritySearcher(
            SetCollection.from_token_sets(
                [list(Counter(dict(counts)).elements()) for counts in expected]
            )
        )
        truth = [
            [(r.set_id, round(r.score, 9))
             for r in oracle.brute_force(q, 0.4)]
            for q in _QUERIES
        ]
        for algorithm in ("sf", "ta", "sort-by-id"):
            assert _answers(searcher, algorithm) == truth


TestDurabilityStateful = DurabilityMachine.TestCase
TestDurabilityStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
