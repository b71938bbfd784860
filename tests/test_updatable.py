"""Tests for the updatable (epoch-based) searcher."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SetCollection, SetSimilaritySearcher
from repro.core.errors import ConfigurationError
from repro.core.properties import effective_threshold
from repro.core.similarity import idf_similarity
from repro.core.updatable import UpdatableSearcher, _EpochCollection
from repro.core.weights import IdfStatistics
from repro.storage.invlist import InvertedIndex
from repro.storage.pages import IOStats


def answers(results):
    return {(r.set_id, round(r.score, 9)) for r in results}


class TestBasics:
    def test_initial_build_searches(self):
        u = UpdatableSearcher([["a", "b"], ["b", "c"]])
        assert 0 in u.search(["a", "b"], 0.9).ids()

    def test_insert_visible_immediately(self):
        u = UpdatableSearcher([["a", "b"]], auto_rebuild_fraction=1.0)
        new_id = u.add(["x", "y"])
        assert new_id == 1
        assert new_id in u.search(["x", "y"], 0.5).ids()

    def test_payloads(self):
        u = UpdatableSearcher([["a"]], payloads=["first"])
        u.add(["b"], payload="second")
        assert u.payload(0) == "first"
        assert u.payload(1) == "second"

    def test_len_and_pending(self):
        u = UpdatableSearcher([["a"], ["b"]], auto_rebuild_fraction=1.0)
        assert len(u) == 2 and u.pending == 0
        u.add(["c"])
        assert len(u) == 3 and u.pending == 1

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            UpdatableSearcher([["a"]], auto_rebuild_fraction=0.0)

    def test_empty_start(self):
        u = UpdatableSearcher()
        u.add(["a", "b"])
        assert 0 in u.search(["a", "b"], 0.5).ids()


class TestEpochSemantics:
    def test_scores_use_epoch_stats_before_rebuild(self):
        # Before a rebuild, pending sets are scored with the old snapshot:
        # a token unseen at snapshot time keeps its default (max) idf.
        u = UpdatableSearcher([["a", "b"], ["a", "c"]],
                              auto_rebuild_fraction=1.0)
        snapshot = u.stats_epoch
        u.add(["a", "b"])  # duplicate of set 0 under the old stats
        result = u.search(["a", "b"], 0.99)
        assert set(result.ids()) == {0, 2}
        assert u.stats_epoch is snapshot  # epoch unchanged

    def test_rebuild_matches_fresh_build(self):
        rng = random.Random(12)
        vocab = [f"t{i}" for i in range(20)]
        initial = [rng.sample(vocab, rng.randint(1, 5)) for _ in range(50)]
        additions = [rng.sample(vocab, rng.randint(1, 5)) for _ in range(20)]
        u = UpdatableSearcher(initial, auto_rebuild_fraction=1.0)
        for s in additions:
            u.add(s)
        u.rebuild()

        fresh_coll = SetCollection.from_token_sets(initial + additions)
        fresh = SetSimilaritySearcher(fresh_coll)
        for _ in range(10):
            q = rng.sample(vocab, rng.randint(1, 4))
            for tau in (0.4, 0.8):
                assert answers(u.search(q, tau).results) == answers(
                    fresh.search(q, tau).results
                )

    def test_auto_rebuild_triggers(self):
        u = UpdatableSearcher(
            [["a"], ["b"], ["c"], ["d"]], auto_rebuild_fraction=0.25
        )
        assert u.epoch == 0
        u.add(["e"])  # pending 1 > 0.25*4 -> rebuild
        assert u.epoch == 1
        assert u.pending == 0

    def test_manual_rebuild_resets_pending(self):
        u = UpdatableSearcher([["a"], ["b"]], auto_rebuild_fraction=1.0)
        u.add(["c"])
        assert u.pending == 1
        epoch = u.rebuild()
        assert epoch == 1
        assert u.pending == 0

    def test_pending_results_merge_with_base(self):
        u = UpdatableSearcher(
            [["a", "b"], ["q", "r"]], auto_rebuild_fraction=1.0
        )
        u.add(["a", "b"])
        result = u.search(["a", "b"], 0.9)
        assert set(result.ids()) == {0, 2}
        # Telemetry aggregated across both indexes.
        assert result.elements_total > 0

    def test_consistency_before_and_after_rebuild(self):
        # The same query must return the same *sets* pre/post rebuild when
        # the additions do not change relative idf ordering drastically;
        # here we assert the exact-match set is stable.
        u = UpdatableSearcher(
            [["x", "y"], ["x", "z"]], auto_rebuild_fraction=1.0
        )
        u.add(["x", "y"])
        before = set(u.search(["x", "y"], 0.999).ids())
        u.rebuild()
        after = set(u.search(["x", "y"], 0.999).ids())
        assert before == after == {0, 2}


class TestInterleaved:
    def test_random_interleaving_always_complete(self):
        rng = random.Random(3)
        vocab = [f"w{i}" for i in range(15)]
        u = UpdatableSearcher(auto_rebuild_fraction=0.5)
        shadow = []
        for step in range(60):
            tokens = rng.sample(vocab, rng.randint(1, 5))
            u.add(tokens)
            shadow.append(tokens)
            if step % 7 == 0:
                q = rng.sample(vocab, rng.randint(1, 4))
                got = set(u.search(q, 0.95).ids())
                # Every exact duplicate of the query must be found
                # irrespective of epoch state.
                expect = {
                    i for i, s in enumerate(shadow)
                    if frozenset(s) == frozenset(q)
                }
                assert expect <= got


class TestPreparedAcrossEpochs:
    def test_prepared_query_survives_rebuild(self):
        u = UpdatableSearcher(
            [["a", "b"], ["a", "c"], ["b", "c"]], auto_rebuild_fraction=1.0
        )
        query = u.prepare(["a", "b"])
        for tokens in (["a"], ["a", "d"], ["a", "b", "d"], ["a", "e"]):
            u.add(tokens)  # "a" grows common: its idf shifts on rebuild
        u.rebuild()
        assert query.stats is not u.stats_epoch
        for tau in (0.3, 0.6, 0.9):
            old = u.search_prepared(query, tau)
            fresh = u.search(["a", "b"], tau)
            assert [(r.set_id, r.score) for r in old.results] == [
                (r.set_id, r.score) for r in fresh.results
            ]


# ----------------------------------------------------------------------
# copy-on-write inserts
# ----------------------------------------------------------------------
VOCAB = ["a", "b", "c", "d", "e"]
_sets = st.lists(st.sampled_from(VOCAB), max_size=4)


def _layout(index: InvertedIndex, num_ids: int):
    """Every list's records, skip-list landings and hash probes."""
    out = {}
    for token in sorted(index.tokens()):
        postings = index._postings[token]
        records = list(postings.weight_file.records())
        keys = [(0.0, -1)] + [(ln, -1) for ln, _ in records] + [
            (ln, sid + 1) for ln, sid in records
        ] + [(float("inf"), -1)]
        seeks = probes = None
        if postings.skip is not None:
            seeks = []
            for key in keys:
                stats = IOStats()
                seeks.append((postings.skip.seek_ge(key, stats),
                               stats.snapshot()))
        if postings.hash is not None:
            probes = []
            for sid in range(num_ids + 1):
                stats = IOStats()
                probes.append((index.probe(token, sid, stats),
                               stats.snapshot()))
        out[token] = (
            records,
            list(postings.id_file.records())
            if postings.id_file is not None else None,
            seeks,
            probes,
        )
    return out


class TestCopyOnWriteInsert:
    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(_sets, max_size=8),
        inserts=st.lists(_sets, min_size=1, max_size=8),
        page_capacity=st.integers(1, 6),
        skiplist_stride=st.integers(1, 5),
        hash_bucket_capacity=st.integers(1, 4),
        with_id_lists=st.booleans(),
        with_skip_lists=st.booleans(),
        with_hash_index=st.booleans(),
    )
    def test_with_set_matches_scratch_build(self, initial, inserts, **options):
        collection = _EpochCollection(
            0, SetCollection.from_token_sets(initial)
        )
        before = InvertedIndex(collection, **options)
        before_layout = _layout(before, len(initial) + len(inserts))

        index = before
        for tokens in inserts:
            set_id = collection.add(tokens)
            index = index.with_set(
                set_id, collection[set_id].tokens, collection.length(set_id)
            )

        scratch = InvertedIndex(collection, **options)
        num_ids = len(collection)
        assert index.num_sets == scratch.num_sets == num_ids
        assert _layout(index, num_ids) == _layout(scratch, num_ids)
        assert _layout(before, num_ids) == before_layout


# ----------------------------------------------------------------------
# snapshots under concurrent inserts and rebuilds
# ----------------------------------------------------------------------
def _brute(sets, query, tau, stats):
    cutoff = effective_threshold(tau)
    scores = {
        i: idf_similarity(query, s, stats) for i, s in enumerate(sets)
    }
    return {i: v for i, v in scores.items() if v >= cutoff}


def _matches(answer, expected):
    got = {r.set_id: r.score for r in answer.results}
    return got.keys() == expected.keys() and all(
        abs(got[i] - expected[i]) <= 1e-9 for i in got
    )


class TestSnapshotAcrossThreads:
    INITIAL = 30
    REBUILD_EVERY = 5
    TAU = 0.6

    def test_every_answer_is_one_snapshot(self):
        rng = random.Random(2008)
        vocab = [f"v{i}" for i in range(12)]
        sets = [rng.sample(vocab, rng.randint(1, 4)) for _ in range(90)]
        u = UpdatableSearcher(
            sets[: self.INITIAL], auto_rebuild_fraction=1.0
        )
        queries = [rng.choice(sets) for _ in range(40)]
        done = threading.Event()
        seen = []
        errors = []

        def writer():
            try:
                for i, tokens in enumerate(sets[self.INITIAL:], 1):
                    u.add(tokens)
                    if i % self.REBUILD_EVERY == 0:
                        u.rebuild()
            finally:
                done.set()

        def reader(seed):
            r = random.Random(seed)
            try:
                while not done.is_set():
                    q = r.choice(queries)
                    before = (len(u), u.epoch)
                    answer = u.search(q, self.TAU)
                    after = (len(u), u.epoch)
                    seen.append((q, before, after, answer))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader, args=(seed,))
                for seed in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(u) == len(sets)
        assert seen

        def epoch_stats(epoch):
            size = self.INITIAL + self.REBUILD_EVERY * epoch
            return IdfStatistics.from_sets(sets[:size])

        stats = {}
        for q, (lo, e0), (hi, e1), answer in seen:
            ok = any(
                _matches(
                    answer,
                    _brute(
                        sets[:k], q, self.TAU,
                        stats.setdefault(e, epoch_stats(e)),
                    ),
                )
                for k in range(lo, hi + 1)
                for e in range(e0, e1 + 1)
            )
            assert ok, (q, lo, hi, e0, e1)
